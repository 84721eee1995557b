open Riq_util
open Riq_isa
open Riq_asm
open Riq_mem
open Riq_branch
open Riq_power
open Riq_ooo
open Riq_interp
open Riq_obs

(* Reference pipeline: a literal copy of the pre-packed-core [Processor]
   cycle loop, kept as the differential oracle for the flat-array fast
   path. It re-derives every per-instruction property with [Insn.t]
   pattern matches, uses [Queue.t] front-end latches and a [Hashtbl]
   event table — exactly the structures the fast path replaced — and
   carries its own private copies of the [Insn.t]-holding issue-queue and
   ROB (the shared [Riq_ooo] versions now store packed word indices).

   Every modeled access (cache, predictor, power charge) happens in the
   same order as the seed core, so arch state, every stat counter and
   every power float must be bit-identical to [Processor]'s. The
   differential suite (test/test_fastpath.ml) asserts exactly that over
   the fixed fuzz corpus and the eight kernels.

   No tracer/sampler seams: the oracle always runs with the null tracer
   (observability hooks are the one part of the seed core not copied). *)

module P = Processor

(* ------------------------------------------------------------------ *)
(* Private issue queue carrying Insn.t (copy of the pre-packed Iq).     *)
(* ------------------------------------------------------------------ *)

module SIq = struct
  type slot = {
    mutable seq : int;
    mutable rob_idx : int;
    mutable pc : int;
    mutable insn : Insn.t;
    mutable fu : Insn.fu_class;
    mutable src1_tag : int;
    mutable src1_i : int;
    mutable src1_f : float;
    mutable src2_tag : int;
    mutable src2_i : int;
    mutable src2_f : float;
    mutable issued : bool;
    mutable reusable : bool;
    mutable dead : bool;
    mutable pred_npc : int;
  }

  type t = { arr : slot array; size : int; mutable count : int; mutable rptr : int }

  let fresh_slot () =
    {
      seq = -1;
      rob_idx = -1;
      pc = 0;
      insn = Insn.Nop;
      fu = Insn.FU_none;
      src1_tag = -1;
      src1_i = 0;
      src1_f = 0.;
      src2_tag = -1;
      src2_i = 0;
      src2_f = 0.;
      issued = false;
      reusable = false;
      dead = false;
      pred_npc = 0;
    }

  let create size =
    if size < 1 then invalid_arg "SIq.create";
    { arr = Array.init size (fun _ -> fresh_slot ()); size; count = 0; rptr = 0 }

  let count t = t.count
  let free t = t.size - t.count
  let is_full t = t.count = t.size
  let slots t = t.arr

  let dispatch t =
    if is_full t then failwith "SIq.dispatch: full";
    let s = t.arr.(t.count) in
    t.count <- t.count + 1;
    s.dead <- false;
    s.issued <- false;
    s.reusable <- false;
    s

  let wakeup t ~tag ~value_i ~value_f =
    for i = 0 to t.count - 1 do
      let s = t.arr.(i) in
      if (not s.issued) && not s.dead then begin
        if s.src1_tag = tag then begin
          s.src1_tag <- -1;
          s.src1_i <- value_i;
          s.src1_f <- value_f
        end;
        if s.src2_tag = tag then begin
          s.src2_tag <- -1;
          s.src2_i <- value_i;
          s.src2_f <- value_f
        end
      end
    done

  let compact t =
    let orig_rptr = t.rptr in
    let dead_before = ref 0 in
    let w = ref 0 in
    let removed = ref 0 in
    for r = 0 to t.count - 1 do
      let s = t.arr.(r) in
      if s.dead then begin
        incr removed;
        if r < orig_rptr then incr dead_before
      end
      else begin
        if !w <> r then begin
          let tmp = t.arr.(!w) in
          t.arr.(!w) <- s;
          t.arr.(r) <- tmp
        end;
        incr w
      end
    done;
    t.count <- !w;
    t.rptr <- orig_rptr - !dead_before;
    if t.rptr > t.count || t.rptr < 0 then t.rptr <- 0;
    !removed

  let reuse_ptr t = t.rptr
  let set_reuse_ptr t i = t.rptr <- i

  let first_reusable t =
    let rec go i = if i >= t.count then -1 else if t.arr.(i).reusable then i else go (i + 1) in
    go 0

  let clear_classification t =
    for i = 0 to t.count - 1 do
      let s = t.arr.(i) in
      if s.reusable then begin
        s.reusable <- false;
        if s.issued then s.dead <- true
      end
    done

  let clear t =
    t.count <- 0;
    t.rptr <- 0

  let squash_after t ~seq =
    for i = 0 to t.count - 1 do
      let s = t.arr.(i) in
      if (not s.dead) && s.seq > seq then begin
        if s.reusable then begin
          if not s.issued then s.issued <- true
        end
        else s.dead <- true
      end
    done
end

(* ------------------------------------------------------------------ *)
(* Private ROB carrying Insn.t (copy of the pre-packed Rob).            *)
(* ------------------------------------------------------------------ *)

module SRob = struct
  type entry = {
    mutable seq : int;
    mutable pc : int;
    mutable insn : Insn.t;
    mutable completed : bool;
    mutable value_i : int;
    mutable value_f : float;
    mutable dest : int;
    mutable is_store : bool;
    mutable lsq_idx : int;
    mutable is_ctrl : bool;
    mutable pred_npc : int;
    mutable actual_npc : int;
    mutable taken : bool;
    mutable ras_ck : int;
    mutable from_reuse : bool;
  }

  type t = {
    entries : entry array;
    size : int;
    mutable head : int;
    mutable tail : int;
    mutable count : int;
  }

  let fresh_entry () =
    {
      seq = -1;
      pc = 0;
      insn = Insn.Nop;
      completed = false;
      value_i = 0;
      value_f = 0.;
      dest = -1;
      is_store = false;
      lsq_idx = -1;
      is_ctrl = false;
      pred_npc = 0;
      actual_npc = 0;
      taken = false;
      ras_ck = 0;
      from_reuse = false;
    }

  let create size =
    if size < 1 then invalid_arg "SRob.create";
    { entries = Array.init size (fun _ -> fresh_entry ()); size; head = 0; tail = 0; count = 0 }

  let count t = t.count
  let is_full t = t.count = t.size
  let is_empty t = t.count = 0

  let alloc t =
    if is_full t then failwith "SRob.alloc: full";
    let idx = t.tail in
    t.tail <- (t.tail + 1) mod t.size;
    t.count <- t.count + 1;
    idx

  let entry t idx = t.entries.(idx)
  let head t = t.head
  let head_entry t = if is_empty t then None else Some t.entries.(t.head)

  let pop_head t =
    if is_empty t then failwith "SRob.pop_head: empty";
    t.entries.(t.head).seq <- -1;
    t.head <- (t.head + 1) mod t.size;
    t.count <- t.count - 1

  let squash_after t ~seq ~f =
    let continue_ = ref true in
    while !continue_ && t.count > 0 do
      let last = (t.tail + t.size - 1) mod t.size in
      let e = t.entries.(last) in
      if e.seq > seq then begin
        f last e;
        e.seq <- -1;
        t.tail <- last;
        t.count <- t.count - 1
      end
      else continue_ := false
    done

  let iter_oldest_first t f =
    for i = 0 to t.count - 1 do
      let idx = (t.head + i) mod t.size in
      f idx t.entries.(idx)
    done
end

(* ------------------------------------------------------------------ *)
(* The pipeline proper — a line-for-line copy of the seed core.        *)
(* ------------------------------------------------------------------ *)

type fetched = {
  f_pc : int;
  f_insn : Insn.t;
  f_pred_npc : int;
  f_ras_ck : Predictor.checkpoint;
  mutable f_buffered : bool;
}

type ev_kind = Complete | Agen

type ev = {
  ev_seq : int;
  ev_rob : int;
  ev_kind : ev_kind;
  ev_addr : int;
  ev_di : int;
  ev_df : float;
  ev_dtag : int;
}

type replay = { rp_seq : int; rp_rob : int; rp_addr : int }

type t = {
  cfg : Config.t;
  program : Program.t;
  memory : Store.t;
  hier : Hierarchy.t;
  pred : Predictor.t;
  rob : SRob.t;
  iq : SIq.t;
  lsq : Lsq.t;
  fu : Fu.t;
  acct : Account.t;
  reuse : Reuse_state.t;
  nblt : Nblt.t;
  lc : Loopcache.t option;
  arch_i : int array;
  arch_f : float array;
  map : int array;
  mutable fetch_pc : int;
  mutable fetch_stall_until : int;
  fetch_q : fetched Queue.t;
  decode_latch : fetched Queue.t;
  mutable now : int;
  mutable seq_ctr : int;
  events : (int, ev list ref) Hashtbl.t;
  mutable replays : replay list;
  mutable halted : bool;
  mutable halt_pc : int;
  mutable committed : int;
  mutable gated_cycles : int;
  mutable n_branches : int;
  mutable n_mispredicts : int;
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_reuse_dispatch : int;
  mutable n_reuse_commit : int;
  loop_log : (int, P.loop_decision) Hashtbl.t;
  mutable cur_reuse_tail : int;
  tracer : Tracer.t;
}

type stop = Halted | Cycle_limit

let create cfg program =
  Config.validate cfg;
  let tracer = Tracer.null () in
  let memory = Store.create () in
  Program.load program ~write_word:(Store.write_word memory);
  let arch_i = Array.make 32 0 in
  arch_i.(Reg.sp) <- Riq_interp.Machine.default_sp;
  {
    cfg;
    program;
    memory;
    hier = Hierarchy.create cfg.Config.mem;
    pred = Predictor.create cfg.Config.bpred;
    rob = SRob.create cfg.Config.rob_entries;
    iq = SIq.create cfg.Config.iq_entries;
    lsq = Lsq.create cfg.Config.lsq_entries;
    fu =
      Fu.create ~n_ialu:cfg.Config.n_ialu ~n_imult:cfg.Config.n_imult
        ~n_fpalu:cfg.Config.n_fpalu ~n_fpmult:cfg.Config.n_fpmult
        ~n_memport:cfg.Config.n_memport;
    acct = Account.create (Model.create (Config.power_geometry cfg));
    reuse = Reuse_state.create ~tracer ();
    nblt = Nblt.create ~tracer cfg.Config.nblt_entries;
    lc =
      (if cfg.Config.loop_cache_entries > 0 then
         Some (Loopcache.create cfg.Config.loop_cache_entries)
       else None);
    arch_i;
    arch_f = Array.make 32 0.;
    map = Array.make Reg.count (-1);
    fetch_pc = program.Program.entry;
    fetch_stall_until = 0;
    fetch_q = Queue.create ();
    decode_latch = Queue.create ();
    now = 0;
    seq_ctr = 0;
    events = Hashtbl.create 64;
    replays = [];
    halted = false;
    halt_pc = 0;
    committed = 0;
    gated_cycles = 0;
    n_branches = 0;
    n_mispredicts = 0;
    n_loads = 0;
    n_stores = 0;
    n_reuse_dispatch = 0;
    n_reuse_commit = 0;
    loop_log = Hashtbl.create 16;
    cur_reuse_tail = -1;
    tracer;
  }

let loop_record t ~head ~tail =
  match Hashtbl.find_opt t.loop_log tail with
  | Some r -> r
  | None ->
      let r =
        {
          P.ld_head = head;
          ld_tail = tail;
          ld_span = ((tail - head) / 4) + 1;
          ld_detections = 0;
          ld_nblt_filtered = 0;
          ld_attempts = 0;
          ld_revokes = 0;
          ld_rv_inner = 0;
          ld_rv_left = 0;
          ld_rv_overflow = 0;
          ld_rv_mispredict = 0;
          ld_nblt_registered = 0;
          ld_promotions = 0;
          ld_reuse_committed = 0;
        }
      in
      Hashtbl.replace t.loop_log tail r;
      r

let charge t c n = Account.add t.acct c n
let charge1 t c = Account.add t.acct c 1.

let schedule t ~cycle ev =
  match Hashtbl.find_opt t.events cycle with
  | Some l -> l := ev :: !l
  | None -> Hashtbl.replace t.events cycle (ref [ ev ])

let next_seq t =
  t.seq_ctr <- t.seq_ctr + 1;
  t.seq_ctr

let fetch_latency t addr =
  let l1_before = Cache.accesses (Hierarchy.l1i t.hier) in
  let l2_before = Cache.accesses (Hierarchy.l2 t.hier) in
  let lat = Hierarchy.fetch t.hier ~now:t.now ~addr () in
  (match Hierarchy.l0i t.hier with
  | Some _ -> charge1 t Component.L0cache
  | None -> ());
  let d1 = Cache.accesses (Hierarchy.l1i t.hier) - l1_before in
  if d1 > 0 then charge t Component.Icache (float_of_int d1);
  charge1 t Component.Itlb;
  let dl2 = Cache.accesses (Hierarchy.l2 t.hier) - l2_before in
  if dl2 > 0 then charge t Component.L2 (float_of_int dl2);
  lat

let data_latency t ~addr ~write =
  let l2_before = Cache.accesses (Hierarchy.l2 t.hier) in
  let lat = Hierarchy.data t.hier ~now:t.now ~addr ~write () in
  charge1 t Component.Dcache;
  charge1 t Component.Dtlb;
  let dl2 = Cache.accesses (Hierarchy.l2 t.hier) - l2_before in
  if dl2 > 0 then charge t Component.L2 (float_of_int dl2);
  lat

let operand_regs insn =
  let z r = if r = Reg.zero then -1 else r in
  match insn with
  | Insn.Alu (_, _, rs, rt) | Mul (_, rs, rt) | Div (_, rs, rt) -> (z rs, z rt)
  | Alui (_, _, rs, _) -> (z rs, -1)
  | Shift (_, _, rt, _) -> (z rt, -1)
  | Shiftv (_, _, rt, rs) -> (z rt, z rs)
  | Lui _ -> (-1, -1)
  | Fpu (op, _, fs, ft) -> if Insn.fpu_unary op then (fs, -1) else (fs, ft)
  | Fcmp (_, _, fs, ft) -> (fs, ft)
  | Cvtsw (_, rs) -> (z rs, -1)
  | Cvtws (_, fs) -> (fs, -1)
  | Lw (_, base, _) | Lb (_, base, _) | Lbu (_, base, _) | Lh (_, base, _)
  | Lhu (_, base, _) | Lwf (_, base, _) ->
      (z base, -1)
  | Sw (rt, base, _) | Sb (rt, base, _) | Sh (rt, base, _) -> (z base, z rt)
  | Swf (ft, base, _) -> (z base, ft)
  | Br (cond, rs, rt, _) -> (
      match cond with
      | Beq | Bne -> (z rs, z rt)
      | Blez | Bgtz | Bltz | Bgez -> (z rs, -1))
  | Jr rs | Jalr (_, rs) -> (z rs, -1)
  | J _ | Jal _ | Nop | Halt -> (-1, -1)

let read_operand t r =
  if r < 0 then (-1, 0, 0.)
  else begin
    charge1 t Component.Regfile;
    match t.map.(r) with
    | -1 ->
        if Reg.is_fp r then (-1, 0, t.arch_f.(Reg.index r))
        else (-1, t.arch_i.(Reg.index r), 0.)
    | idx ->
        let e = SRob.entry t.rob idx in
        if e.SRob.completed then (-1, e.SRob.value_i, e.SRob.value_f) else (idx, 0, 0.)
  end

let compute insn ~pc ~s1i ~s1f ~s2i ~s2f =
  let next = pc + 4 in
  match insn with
  | Insn.Alu (op, _, _, _) -> (Semantics.alu op s1i s2i, 0., false, next)
  | Alui (op, _, _, imm) -> (Semantics.alu op s1i (Semantics.alui_imm op imm), 0., false, next)
  | Shift (op, _, _, sh) -> (Semantics.shift op s1i sh, 0., false, next)
  | Shiftv (op, _, _, _) -> (Semantics.shift op s1i s2i, 0., false, next)
  | Lui (_, imm) -> (Bits.of_i32 (imm lsl 16), 0., false, next)
  | Mul (_, _, _) -> (Semantics.mul s1i s2i, 0., false, next)
  | Div (_, _, _) -> (Semantics.div s1i s2i, 0., false, next)
  | Fpu (op, _, _, _) -> (0, Semantics.fpu op s1f s2f, false, next)
  | Fcmp (op, _, _, _) -> (Semantics.fcmp op s1f s2f, 0., false, next)
  | Cvtsw (_, _) -> (0, Semantics.cvt_s_w s1i, false, next)
  | Cvtws (_, _) -> (Semantics.cvt_w_s s1f, 0., false, next)
  | Br (cond, _, _, off) ->
      let taken = Semantics.branch_taken cond s1i s2i in
      (0, 0., taken, if taken then pc + 4 + (4 * off) else next)
  | J tgt -> (0, 0., true, 4 * tgt)
  | Jal tgt -> (next, 0., true, 4 * tgt)
  | Jr _ -> (0, 0., true, s1i)
  | Jalr (_, _) -> (next, 0., true, s1i)
  | Lw _ | Lb _ | Lbu _ | Lh _ | Lhu _ | Sw _ | Sb _ | Sh _ | Lwf _ | Swf _ | Nop | Halt ->
      (0, 0., false, next)

let effective_addr insn ~base =
  match insn with
  | Insn.Lw (_, _, off) | Lb (_, _, off) | Lbu (_, _, off) | Lh (_, _, off)
  | Lhu (_, _, off) | Sw (_, _, off) | Sb (_, _, off) | Sh (_, _, off)
  | Lwf (_, _, off) | Swf (_, _, off) ->
      Bits.add32 base off
  | Alu _ | Alui _ | Shift _ | Shiftv _ | Lui _ | Mul _ | Div _ | Fpu _ | Fcmp _
  | Cvtsw _ | Cvtws _ | Br _ | J _ | Jal _ | Jr _ | Jalr _ | Nop | Halt ->
      invalid_arg "Slowpath.effective_addr: not a memory operation"

let is_fp_mem insn = match insn with Insn.Lwf _ | Swf _ -> true | _ -> false

let valid_addr insn addr =
  addr >= 0 && addr land (Insn.access_bytes insn - 1) = 0

let rebuild_map t =
  Array.fill t.map 0 (Array.length t.map) (-1);
  SRob.iter_oldest_first t.rob (fun idx e ->
      if e.SRob.dest >= 0 then t.map.(e.SRob.dest) <- idx)

let flush_front_end t =
  Queue.clear t.fetch_q;
  Queue.clear t.decode_latch

let revoke_buffering t ~register_nblt ~cause =
  let r =
    loop_record t ~head:t.reuse.Reuse_state.head ~tail:t.reuse.Reuse_state.tail
  in
  r.P.ld_revokes <- r.P.ld_revokes + 1;
  (match cause with
  | P.Rv_inner_loop -> r.P.ld_rv_inner <- r.P.ld_rv_inner + 1
  | P.Rv_left_loop -> r.P.ld_rv_left <- r.P.ld_rv_left + 1
  | P.Rv_overflow -> r.P.ld_rv_overflow <- r.P.ld_rv_overflow + 1
  | P.Rv_mispredict -> r.P.ld_rv_mispredict <- r.P.ld_rv_mispredict + 1);
  if register_nblt then begin
    r.P.ld_nblt_registered <- r.P.ld_nblt_registered + 1;
    charge1 t Component.Nblt;
    Nblt.insert ~now:t.now t.nblt t.reuse.Reuse_state.tail
  end;
  SIq.clear_classification t.iq;
  Reuse_state.revoke ~now:t.now t.reuse

let exit_reuse t =
  SIq.clear_classification t.iq;
  SIq.set_reuse_ptr t.iq 0;
  Reuse_state.exit_reuse ~now:t.now t.reuse

let recover t (e : SRob.entry) =
  let seq = e.SRob.seq in
  SRob.squash_after t.rob ~seq ~f:(fun _ _ -> ());
  Lsq.squash_after t.lsq ~seq;
  SIq.squash_after t.iq ~seq;
  rebuild_map t;
  Predictor.restore t.pred e.SRob.ras_ck;
  flush_front_end t;
  t.fetch_pc <- e.SRob.actual_npc;
  t.fetch_stall_until <- t.now + 1;
  t.replays <- List.filter (fun r -> r.rp_seq <= seq) t.replays;
  Option.iter Loopcache.reset t.lc;
  match t.reuse.Reuse_state.state with
  | Reuse_state.Normal -> ()
  | Reuse_state.Buffering ->
      let in_loop = Reuse_state.in_loop t.reuse ~pc:e.SRob.pc in
      revoke_buffering t ~register_nblt:in_loop
        ~cause:(if in_loop then P.Rv_left_loop else P.Rv_mispredict)
  | Reuse_state.Reusing -> exit_reuse t

(* Commit. *)

let commit_one t (e : SRob.entry) =
  charge1 t Component.Rob;
  (match e.SRob.dest with
  | -1 -> ()
  | d ->
      charge1 t Component.Regfile;
      if Reg.is_fp d then t.arch_f.(Reg.index d) <- e.SRob.value_f
      else t.arch_i.(Reg.index d) <- e.SRob.value_i;
      let head_idx = SRob.head t.rob in
      if t.map.(d) = head_idx then t.map.(d) <- -1);
  if e.SRob.lsq_idx >= 0 then begin
    let le = Lsq.entry t.lsq e.SRob.lsq_idx in
    assert (Lsq.head_is t.lsq e.SRob.lsq_idx);
    if e.SRob.is_store then begin
      t.n_stores <- t.n_stores + 1;
      charge1 t Component.Lsq;
      ignore (data_latency t ~addr:le.Lsq.addr ~write:true);
      if le.Lsq.is_fp then Store.write_float t.memory le.Lsq.addr le.Lsq.data_f
      else begin
        match e.SRob.insn with
        | Insn.Sb _ -> Store.write_byte t.memory le.Lsq.addr le.Lsq.data_i
        | Insn.Sh _ -> Store.write_half t.memory le.Lsq.addr le.Lsq.data_i
        | _ -> Store.write_word t.memory le.Lsq.addr (Bits.to_u32 le.Lsq.data_i)
      end
    end
    else t.n_loads <- t.n_loads + 1;
    Lsq.pop_head t.lsq
  end;
  (match e.SRob.insn with
  | Insn.Halt ->
      t.halted <- true;
      t.halt_pc <- e.SRob.pc;
      SRob.squash_after t.rob ~seq:e.SRob.seq ~f:(fun _ _ -> ());
      Lsq.squash_after t.lsq ~seq:e.SRob.seq;
      SIq.clear t.iq;
      flush_front_end t;
      Hashtbl.reset t.events;
      t.replays <- []
  | _ -> ());
  if e.SRob.from_reuse then begin
    t.n_reuse_commit <- t.n_reuse_commit + 1;
    let best = ref None in
    Hashtbl.iter
      (fun _ r ->
        if e.SRob.pc >= r.P.ld_head && e.SRob.pc <= r.P.ld_tail then
          match !best with
          | Some b when b.P.ld_span <= r.P.ld_span -> ()
          | _ -> best := Some r)
      t.loop_log;
    match (!best, Hashtbl.find_opt t.loop_log t.cur_reuse_tail) with
    | Some r, _ | None, Some r -> r.P.ld_reuse_committed <- r.P.ld_reuse_committed + 1
    | None, None -> ()
  end;
  t.committed <- t.committed + 1;
  SRob.pop_head t.rob

let commit_stage t =
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < t.cfg.Config.commit_width && not t.halted do
    match SRob.head_entry t.rob with
    | Some e when e.SRob.completed ->
        commit_one t e;
        incr n
    | Some _ | None -> continue_ := false
  done

(* Writeback. *)

let complete t (e : SRob.entry) rob_idx =
  e.SRob.completed <- true;
  charge1 t Component.Rob;
  charge1 t Component.Resultbus;
  charge1 t Component.Iq_wakeup;
  SIq.wakeup t.iq ~tag:rob_idx ~value_i:e.SRob.value_i ~value_f:e.SRob.value_f;
  List.iter
    (fun (store_rob, store_seq) ->
      schedule t ~cycle:(t.now + 1)
        {
          ev_seq = store_seq;
          ev_rob = store_rob;
          ev_kind = Complete;
          ev_addr = 0;
          ev_di = 0;
          ev_df = 0.;
          ev_dtag = -1;
        })
    (Lsq.capture_data t.lsq ~tag:rob_idx ~value_i:e.SRob.value_i ~value_f:e.SRob.value_f);
  if e.SRob.is_ctrl then begin
    t.n_branches <- t.n_branches + 1;
    (match e.SRob.insn with
    | Insn.Br _ -> charge1 t Component.Bpred_dir
    | _ -> ());
    if e.SRob.taken then charge1 t Component.Btb;
    Predictor.resolve t.pred ~pc:e.SRob.pc ~insn:e.SRob.insn ~taken:e.SRob.taken
      ~target:e.SRob.actual_npc;
    if e.SRob.actual_npc <> e.SRob.pred_npc then begin
      t.n_mispredicts <- t.n_mispredicts + 1;
      recover t e
    end
  end

let load_value_from_reg insn raw =
  match insn with
  | Insn.Lb _ -> Bits.sign_extend raw ~width:8
  | Lbu _ -> raw land 0xFF
  | Lh _ -> Bits.sign_extend raw ~width:16
  | Lhu _ -> raw land 0xFFFF
  | _ -> Bits.of_i32 raw

let load_value_from_memory t insn addr =
  match insn with
  | Insn.Lb _ -> Bits.sign_extend (Store.read_byte t.memory addr) ~width:8
  | Lbu _ -> Store.read_byte t.memory addr
  | Lh _ -> Bits.sign_extend (Store.read_half t.memory addr) ~width:16
  | Lhu _ -> Store.read_half t.memory addr
  | _ -> Bits.of_i32 (Store.read_word t.memory addr)

let start_load ?(charge_search = true) t ~rob_idx ~(e : SRob.entry) ~addr =
  let le = Lsq.entry t.lsq e.SRob.lsq_idx in
  if charge_search then charge1 t Component.Lsq;
  match Lsq.check_load t.lsq ~idx:e.SRob.lsq_idx ~addr ~width:le.Lsq.width with
  | Lsq.Wait -> false
  | Lsq.Forward se ->
      if le.Lsq.is_fp then e.SRob.value_f <- se.Lsq.data_f
      else e.SRob.value_i <- load_value_from_reg e.SRob.insn se.Lsq.data_i;
      schedule t ~cycle:(t.now + 1)
        { ev_seq = e.SRob.seq; ev_rob = rob_idx; ev_kind = Complete; ev_addr = 0; ev_di = 0; ev_df = 0.; ev_dtag = -1 };
      true
  | Lsq.Access ->
      let lat =
        if valid_addr e.SRob.insn addr then begin
          let lat = data_latency t ~addr ~write:false in
          if le.Lsq.is_fp then e.SRob.value_f <- Store.read_float t.memory addr
          else e.SRob.value_i <- load_value_from_memory t e.SRob.insn addr;
          lat
        end
        else 1
      in
      schedule t ~cycle:(t.now + lat)
        { ev_seq = e.SRob.seq; ev_rob = rob_idx; ev_kind = Complete; ev_addr = 0; ev_di = 0; ev_df = 0.; ev_dtag = -1 };
      true

let process_agen t ev =
  let e = SRob.entry t.rob ev.ev_rob in
  if e.SRob.seq = ev.ev_seq then begin
    let le = Lsq.entry t.lsq e.SRob.lsq_idx in
    le.Lsq.addr <- ev.ev_addr;
    le.Lsq.addr_ready <- true;
    charge1 t Component.Lsq;
    if e.SRob.is_store then begin
      if ev.ev_dtag = -1 then begin
        le.Lsq.data_i <- ev.ev_di;
        le.Lsq.data_f <- ev.ev_df;
        le.Lsq.data_ready <- true;
        schedule t ~cycle:(t.now + 1)
          { ev with ev_kind = Complete; ev_addr = 0; ev_di = 0; ev_df = 0.; ev_dtag = -1 }
      end
      else begin
        let producer = SRob.entry t.rob ev.ev_dtag in
        if producer.SRob.completed then begin
          le.Lsq.data_i <- producer.SRob.value_i;
          le.Lsq.data_f <- producer.SRob.value_f;
          le.Lsq.data_ready <- true;
          schedule t ~cycle:(t.now + 1)
            { ev with ev_kind = Complete; ev_addr = 0; ev_di = 0; ev_df = 0.; ev_dtag = -1 }
        end
        else Lsq.wait_data t.lsq le ~tag:ev.ev_dtag
      end
    end
    else if not (start_load t ~rob_idx:ev.ev_rob ~e ~addr:ev.ev_addr) then
      t.replays <- { rp_seq = ev.ev_seq; rp_rob = ev.ev_rob; rp_addr = ev.ev_addr } :: t.replays
  end

let writeback_stage t =
  match Hashtbl.find_opt t.events t.now with
  | None -> ()
  | Some l ->
      Hashtbl.remove t.events t.now;
      let evs = List.sort (fun a b -> compare a.ev_seq b.ev_seq) !l in
      List.iter
        (fun ev ->
          let e = SRob.entry t.rob ev.ev_rob in
          if e.SRob.seq = ev.ev_seq && not e.SRob.completed then begin
            match ev.ev_kind with
            | Complete -> complete t e ev.ev_rob
            | Agen -> process_agen t ev
          end)
        evs

let replay_stage t =
  let pending = t.replays in
  t.replays <- [];
  List.iter
    (fun r ->
      let e = SRob.entry t.rob r.rp_rob in
      if e.SRob.seq = r.rp_seq && not e.SRob.completed then
        if not (start_load ~charge_search:false t ~rob_idx:r.rp_rob ~e ~addr:r.rp_addr) then
          t.replays <- r :: t.replays)
    (List.rev pending)

(* Issue. *)

let issue_slot t (s : SIq.slot) =
  let insn = s.SIq.insn in
  s.SIq.issued <- true;
  charge1 t Component.Iq_payload;
  (match s.SIq.fu with
  | Insn.FU_ialu -> charge1 t Component.Ialu
  | FU_imult -> charge1 t Component.Imult
  | FU_fpalu -> charge1 t Component.Fpalu
  | FU_fpmult -> charge1 t Component.Fpmult
  | FU_mem -> charge1 t Component.Ialu
  | FU_none -> ());
  let e = SRob.entry t.rob s.SIq.rob_idx in
  (match Insn.kind insn with
  | Insn.K_load | K_store ->
      let addr = effective_addr insn ~base:s.SIq.src1_i in
      schedule t ~cycle:(t.now + 1)
        {
          ev_seq = s.SIq.seq;
          ev_rob = s.SIq.rob_idx;
          ev_kind = Agen;
          ev_addr = addr;
          ev_di = s.SIq.src2_i;
          ev_df = s.SIq.src2_f;
          ev_dtag = s.SIq.src2_tag;
        }
  | K_int | K_fp | K_branch | K_jump | K_call | K_return | K_ijump | K_nop | K_halt ->
      let vi, vf, taken, npc =
        compute insn ~pc:s.SIq.pc ~s1i:s.SIq.src1_i ~s1f:s.SIq.src1_f ~s2i:s.SIq.src2_i
          ~s2f:s.SIq.src2_f
      in
      e.SRob.value_i <- vi;
      e.SRob.value_f <- vf;
      e.SRob.taken <- taken;
      e.SRob.actual_npc <- npc;
      let lat = max 1 (Insn.latency insn) in
      schedule t ~cycle:(t.now + lat)
        { ev_seq = s.SIq.seq; ev_rob = s.SIq.rob_idx; ev_kind = Complete; ev_addr = 0; ev_di = 0; ev_df = 0.; ev_dtag = -1 });
  if not s.SIq.reusable then s.SIq.dead <- true

let issue_stage t =
  let width = t.cfg.Config.issue_width in
  if SIq.count t.iq > 0 then charge1 t Component.Iq_select;
  let cand = Array.make width (-1) in
  let cand_seq = Array.make width max_int in
  let slots = SIq.slots t.iq in
  for i = 0 to SIq.count t.iq - 1 do
    let s = slots.(i) in
    let is_store = match Insn.kind s.SIq.insn with Insn.K_store -> true | _ -> false in
    if
      (not s.SIq.dead) && (not s.SIq.issued) && s.SIq.src1_tag = -1
      && (s.SIq.src2_tag = -1 || is_store)
    then begin
      let j = ref (width - 1) in
      if s.SIq.seq < cand_seq.(!j) then begin
        while !j > 0 && s.SIq.seq < cand_seq.(!j - 1) do
          cand_seq.(!j) <- cand_seq.(!j - 1);
          cand.(!j) <- cand.(!j - 1);
          decr j
        done;
        cand_seq.(!j) <- s.SIq.seq;
        cand.(!j) <- i
      end
    end
  done;
  for k = 0 to width - 1 do
    if cand.(k) >= 0 then begin
      let s = slots.(cand.(k)) in
      let lat = max 1 (Insn.latency s.SIq.insn) in
      if Fu.acquire t.fu s.SIq.fu ~now:t.now ~latency:lat ~pipelined:(Insn.pipelined s.SIq.insn)
      then issue_slot t s
    end
  done

(* Dispatch: normal mode. *)

let fill_rob_entry t ~rob_idx ~seq ~pc ~insn ~pred_npc ~ras_ck ~from_reuse =
  let e = SRob.entry t.rob rob_idx in
  e.SRob.seq <- seq;
  e.SRob.pc <- pc;
  e.SRob.insn <- insn;
  e.SRob.completed <- false;
  e.SRob.value_i <- 0;
  e.SRob.value_f <- 0.;
  e.SRob.dest <- (match Insn.dest insn with Some d -> d | None -> -1);
  e.SRob.is_store <- (match Insn.kind insn with Insn.K_store -> true | _ -> false);
  e.SRob.lsq_idx <- -1;
  e.SRob.is_ctrl <- Insn.is_ctrl insn;
  e.SRob.pred_npc <- pred_npc;
  e.SRob.actual_npc <- pc + 4;
  e.SRob.taken <- false;
  e.SRob.ras_ck <- ras_ck;
  e.SRob.from_reuse <- from_reuse;
  e

let is_mem insn =
  match Insn.kind insn with Insn.K_load | K_store -> true | _ -> false

let rename_into_slot t (s : SIq.slot) ~seq ~rob_idx ~pc ~insn ~pred_npc =
  charge1 t Component.Rename;
  let r1, r2 = operand_regs insn in
  let t1, v1i, v1f = read_operand t r1 in
  let t2, v2i, v2f = read_operand t r2 in
  s.SIq.seq <- seq;
  s.SIq.rob_idx <- rob_idx;
  s.SIq.pc <- pc;
  s.SIq.insn <- insn;
  s.SIq.fu <- Insn.fu insn;
  s.SIq.src1_tag <- t1;
  s.SIq.src1_i <- v1i;
  s.SIq.src1_f <- v1f;
  s.SIq.src2_tag <- t2;
  s.SIq.src2_i <- v2i;
  s.SIq.src2_f <- v2f;
  s.SIq.issued <- false;
  s.SIq.pred_npc <- pred_npc;
  (match Insn.dest insn with
  | Some d -> t.map.(d) <- rob_idx
  | None -> ())

let dispatch_one t (f : fetched) =
  if SRob.is_full t.rob then false
  else if SIq.is_full t.iq then begin
    if t.reuse.Reuse_state.state = Reuse_state.Buffering && f.f_buffered then
      revoke_buffering t ~register_nblt:true ~cause:P.Rv_overflow;
    false
  end
  else if is_mem f.f_insn && Lsq.is_full t.lsq then false
  else begin
    let seq = next_seq t in
    let rob_idx = SRob.alloc t.rob in
    charge1 t Component.Rob;
    let e =
      fill_rob_entry t ~rob_idx ~seq ~pc:f.f_pc ~insn:f.f_insn ~pred_npc:f.f_pred_npc
        ~ras_ck:f.f_ras_ck ~from_reuse:false
    in
    if is_mem f.f_insn then begin
      let li = Lsq.alloc t.lsq in
      let le = Lsq.entry t.lsq li in
      le.Lsq.seq <- seq;
      le.Lsq.rob_idx <- rob_idx;
      le.Lsq.is_store <- e.SRob.is_store;
      le.Lsq.is_fp <- is_fp_mem f.f_insn;
      le.Lsq.width <- Insn.access_bytes f.f_insn;
      e.SRob.lsq_idx <- li
    end;
    let s = SIq.dispatch t.iq in
    rename_into_slot t s ~seq ~rob_idx ~pc:f.f_pc ~insn:f.f_insn ~pred_npc:f.f_pred_npc;
    charge1 t Component.Iq_payload;
    let buffering = t.reuse.Reuse_state.state = Reuse_state.Buffering in
    if buffering && f.f_buffered then begin
      s.SIq.reusable <- true;
      charge1 t Component.Lrl;
      t.reuse.Reuse_state.iter_count <- t.reuse.Reuse_state.iter_count + 1;
      if t.reuse.Reuse_state.first_buffered_seq = -1 then
        t.reuse.Reuse_state.first_buffered_seq <- seq;
      if f.f_pc = t.reuse.Reuse_state.tail then begin
        let iter_size = t.reuse.Reuse_state.iter_count in
        t.reuse.Reuse_state.iters_buffered <- t.reuse.Reuse_state.iters_buffered + 1;
        t.reuse.Reuse_state.iter_count <- 0;
        let continue_buffering =
          t.cfg.Config.buffer_multiple_iterations && SIq.free t.iq >= iter_size
        in
        if not continue_buffering then begin
          let r =
            loop_record t ~head:t.reuse.Reuse_state.head
              ~tail:t.reuse.Reuse_state.tail
          in
          r.P.ld_promotions <- r.P.ld_promotions + 1;
          t.cur_reuse_tail <- t.reuse.Reuse_state.tail;
          Reuse_state.promote ~now:t.now t.reuse;
          SIq.set_reuse_ptr t.iq (SIq.first_reusable t.iq);
          flush_front_end t
        end
      end
    end;
    true
  end

let dispatch_normal t =
  let budget = ref t.cfg.Config.decode_width in
  let continue_ = ref true in
  while
    !continue_ && !budget > 0
    && (not (Queue.is_empty t.decode_latch))
    && t.reuse.Reuse_state.state <> Reuse_state.Reusing
  do
    let f = Queue.peek t.decode_latch in
    if dispatch_one t f then begin
      if not (Queue.is_empty t.decode_latch) then ignore (Queue.pop t.decode_latch);
      decr budget
    end
    else continue_ := false
  done

(* Dispatch in Code Reuse state. *)

let reuse_dispatch_one t ~allow_wrap =
  let first = SIq.first_reusable t.iq in
  if first < 0 then false
  else begin
    let p = SIq.reuse_ptr t.iq in
    let needs_wrap = p >= SIq.count t.iq || not (SIq.slots t.iq).(p).SIq.reusable in
    if needs_wrap && not allow_wrap then false
    else begin
    let rptr = if needs_wrap then first else p in
    let s = (SIq.slots t.iq).(rptr) in
    if not s.SIq.issued then false
    else if SRob.is_full t.rob then false
    else if is_mem s.SIq.insn && Lsq.is_full t.lsq then false
    else begin
      let insn = s.SIq.insn in
      let pc = s.SIq.pc in
      let seq = next_seq t in
      let rob_idx = SRob.alloc t.rob in
      charge1 t Component.Rob;
      let e =
        fill_rob_entry t ~rob_idx ~seq ~pc ~insn ~pred_npc:s.SIq.pred_npc
          ~ras_ck:(Predictor.checkpoint t.pred) ~from_reuse:true
      in
      if is_mem insn then begin
        let li = Lsq.alloc t.lsq in
        let le = Lsq.entry t.lsq li in
        le.Lsq.seq <- seq;
        le.Lsq.rob_idx <- rob_idx;
        le.Lsq.is_store <- e.SRob.is_store;
        le.Lsq.is_fp <- is_fp_mem insn;
        le.Lsq.width <- Insn.access_bytes insn;
        e.SRob.lsq_idx <- li
      end;
      rename_into_slot t s ~seq ~rob_idx ~pc ~insn ~pred_npc:s.SIq.pred_npc;
      s.SIq.reusable <- true;
      charge1 t Component.Lrl;
      charge t Component.Iq_payload Model.iq_partial_update_fraction;
      t.n_reuse_dispatch <- t.n_reuse_dispatch + 1;
      SIq.set_reuse_ptr t.iq (rptr + 1);
      true
    end
    end
  end

let dispatch_reuse t =
  let budget = ref t.cfg.Config.issue_width in
  let continue_ = ref true in
  while !continue_ && !budget > 0 && t.reuse.Reuse_state.state = Reuse_state.Reusing do
    if reuse_dispatch_one t ~allow_wrap:true then decr budget else continue_ := false
  done

(* Decode. *)

let decode_reuse_hooks t (f : fetched) =
  if t.cfg.Config.reuse_enabled then begin
    let r = t.reuse in
    match r.Reuse_state.state with
    | Reuse_state.Normal -> (
        if Insn.is_ctrl f.f_insn then charge1 t Component.Reuse_logic;
        match
          Detector.examine ~tracer:t.tracer ~now:t.now ~iq_size:t.cfg.Config.iq_entries
            ~pc:f.f_pc f.f_insn
        with
        | Detector.Capturable { head; tail; span = _ } ->
            r.Reuse_state.n_detections <- r.Reuse_state.n_detections + 1;
            let ld = loop_record t ~head ~tail in
            ld.P.ld_detections <- ld.P.ld_detections + 1;
            charge1 t Component.Nblt;
            if Nblt.mem t.nblt tail then begin
              r.Reuse_state.n_nblt_filtered <- r.Reuse_state.n_nblt_filtered + 1;
              ld.P.ld_nblt_filtered <- ld.P.ld_nblt_filtered + 1
            end
            else if f.f_pred_npc = head then begin
              ld.P.ld_attempts <- ld.P.ld_attempts + 1;
              Reuse_state.start_buffering ~now:t.now r ~head ~tail;
              (* Latched entries are older than the tail: none belongs to
                 the new buffer (see [Processor.handle_capture]). *)
              Queue.iter (fun g -> g.f_buffered <- false) t.decode_latch
            end
        | Detector.Too_large _ | Detector.Not_a_loop -> ())
    | Reuse_state.Buffering ->
        let in_loop = Reuse_state.in_loop r ~pc:f.f_pc in
        let in_callee = r.Reuse_state.call_depth > 0 in
        f.f_buffered <- in_loop || in_callee;
        (match Insn.kind f.f_insn with
        | Insn.K_call -> if f.f_buffered then r.Reuse_state.call_depth <- r.Reuse_state.call_depth + 1
        | K_return ->
            if in_callee then r.Reuse_state.call_depth <- r.Reuse_state.call_depth - 1
        | K_branch | K_jump | K_ijump | K_int | K_fp | K_load | K_store | K_nop | K_halt ->
            ());
        if (not in_loop) && not in_callee then
          revoke_buffering t ~register_nblt:true ~cause:P.Rv_left_loop
        else begin
          match Detector.examine ~iq_size:t.cfg.Config.iq_entries ~pc:f.f_pc f.f_insn with
          | Detector.Capturable { tail; _ } when tail <> r.Reuse_state.tail ->
              revoke_buffering t ~register_nblt:true ~cause:P.Rv_inner_loop
          | Detector.Capturable _ | Detector.Too_large _ | Detector.Not_a_loop -> ()
        end
    | Reuse_state.Reusing -> ()
  end

let decode_stage t =
  if t.reuse.Reuse_state.state <> Reuse_state.Reusing then begin
    let room = t.cfg.Config.decode_width - Queue.length t.decode_latch in
    for _ = 1 to room do
      if
        (not (Queue.is_empty t.fetch_q))
        && t.reuse.Reuse_state.state <> Reuse_state.Reusing
      then begin
        let f = Queue.pop t.fetch_q in
        charge1 t Component.Decoder;
        decode_reuse_hooks t f;
        Queue.push f t.decode_latch
      end
    done
  end

(* Fetch. *)

let fetch_stage t =
  if
    t.reuse.Reuse_state.state <> Reuse_state.Reusing
    && t.fetch_pc >= 0
    && t.now >= t.fetch_stall_until
    && Queue.length t.fetch_q < t.cfg.Config.fetch_queue
    && Program.insn_at t.program t.fetch_pc <> None
  then begin
    let serve_lc =
      match t.lc with Some lc -> Loopcache.serving lc ~pc:t.fetch_pc | None -> false
    in
    let lat =
      if serve_lc then begin
        charge1 t Component.Loopcache;
        t.cfg.Config.mem.Hierarchy.l1i.Cache.hit_latency
      end
      else fetch_latency t t.fetch_pc
    in
    if lat > t.cfg.Config.mem.Hierarchy.l1i.Cache.hit_latency then
      t.fetch_stall_until <- t.now + lat
    else begin
      let line = t.cfg.Config.mem.Hierarchy.l1i.Cache.line_bytes in
      let line_of pc = pc / line in
      let cur_line = ref (line_of t.fetch_pc) in
      let fetched = ref 0 in
      let continue_ = ref true in
      while
        !continue_ && !fetched < t.cfg.Config.fetch_width
        && Queue.length t.fetch_q < t.cfg.Config.fetch_queue
        && t.fetch_pc >= 0
      do
        if (not serve_lc) && line_of t.fetch_pc <> !cur_line then begin
          let lat = fetch_latency t t.fetch_pc in
          if lat > t.cfg.Config.mem.Hierarchy.l1i.Cache.hit_latency then begin
            t.fetch_stall_until <- t.now + lat;
            continue_ := false
          end
          else cur_line := line_of t.fetch_pc
        end;
        if !continue_ then begin
          match Program.insn_at t.program t.fetch_pc with
          | None -> continue_ := false
          | Some insn ->
              let pc = t.fetch_pc in
              let pred_npc, ck =
                if Insn.is_ctrl insn then begin
                  (match Insn.kind insn with
                  | Insn.K_branch -> charge1 t Component.Bpred_dir
                  | K_call | K_return -> charge1 t Component.Ras
                  | K_jump | K_ijump | K_int | K_fp | K_load | K_store | K_nop | K_halt -> ());
                  charge1 t Component.Btb;
                  let d = Predictor.lookup t.pred ~pc ~insn in
                  let ck = Predictor.checkpoint t.pred in
                  let npc =
                    if d.Predictor.taken then
                      match d.Predictor.target with Some tgt -> tgt | None -> -1
                    else pc + 4
                  in
                  (npc, ck)
                end
                else (pc + 4, Predictor.checkpoint t.pred)
              in
              Queue.push
                { f_pc = pc; f_insn = insn; f_pred_npc = pred_npc; f_ras_ck = ck; f_buffered = false }
                t.fetch_q;
              (match t.lc with
              | Some lc ->
                  if Loopcache.state lc = Loopcache.Fill then charge1 t Component.Loopcache;
                  Loopcache.on_fetch lc ~pc ~insn ~pred_npc
              | None -> ());
              incr fetched;
              (match Insn.kind insn with
              | Insn.K_halt ->
                  t.fetch_pc <- -1;
                  continue_ := false
              | _ ->
                  t.fetch_pc <- pred_npc;
                  if pred_npc < 0 then continue_ := false)
        end
      done
    end
  end

(* Cycle loop. *)

let step_cycle t =
  commit_stage t;
  if not t.halted then begin
    writeback_stage t;
    replay_stage t;
    issue_stage t;
    (match t.reuse.Reuse_state.state with
    | Reuse_state.Reusing -> dispatch_reuse t
    | Reuse_state.Normal | Reuse_state.Buffering -> dispatch_normal t);
    decode_stage t;
    fetch_stage t;
    if t.reuse.Reuse_state.state = Reuse_state.Reusing then begin
      t.gated_cycles <- t.gated_cycles + 1;
      charge1 t Component.Reuse_logic
    end;
    let removed = SIq.compact t.iq in
    if removed > 0 then charge t Component.Iq_payload (float_of_int removed)
  end;
  Account.tick t.acct;
  t.now <- t.now + 1

let run ?(cycle_limit = 200_000_000) t =
  let rec go () =
    if t.halted then Halted
    else if t.now >= cycle_limit then Cycle_limit
    else begin
      step_cycle t;
      go ()
    end
  in
  go ()

let halted t = t.halted
let cycles t = t.now
let committed t = t.committed
let ipc t = if t.now = 0 then 0. else float_of_int t.committed /. float_of_int t.now
let gated_cycles t = t.gated_cycles

let arch_state t =
  {
    Riq_interp.Machine.final_pc = t.halt_pc + 4;
    instructions = t.committed;
    int_regs = Array.copy t.arch_i;
    fp_regs = Array.copy t.arch_f;
    memory =
      List.rev (Store.fold_nonzero t.memory ~init:[] ~f:(fun acc addr v -> (addr, v) :: acc));
  }

let loop_decisions t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.loop_log []
  |> List.sort (fun a b -> compare a.P.ld_tail b.P.ld_tail)

let account t = t.acct

let stats t =
  {
    P.cycles = t.now;
    committed = t.committed;
    ipc = ipc t;
    gated_cycles = t.gated_cycles;
    gated_fraction = (if t.now = 0 then 0. else float_of_int t.gated_cycles /. float_of_int t.now);
    branches = t.n_branches;
    mispredicts = t.n_mispredicts;
    loads = t.n_loads;
    stores = t.n_stores;
    reuse_dispatches = t.n_reuse_dispatch;
    reuse_committed = t.n_reuse_commit;
    buffer_attempts = t.reuse.Reuse_state.n_buffer_attempts;
    revokes = t.reuse.Reuse_state.n_revokes;
    promotions = t.reuse.Reuse_state.n_promotions;
    reuse_exits = t.reuse.Reuse_state.n_reuse_exits;
    avg_power = Account.avg_power t.acct;
    icache_accesses = Cache.accesses (Hierarchy.l1i t.hier);
    icache_misses = Cache.misses (Hierarchy.l1i t.hier);
    dcache_accesses = Cache.accesses (Hierarchy.l1d t.hier);
    dcache_misses = Cache.misses (Hierarchy.l1d t.hier);
    skipped_cycles = 0;
    ffwd_iterations = 0;
  }

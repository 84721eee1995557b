open Riq_util
open Riq_isa
open Riq_asm
open Riq_mem
open Riq_branch
open Riq_power
open Riq_ooo
open Riq_interp
open Riq_obs

(* The execution core. The pipeline structure is the seed core's, but
   the per-instruction properties its bookkeeping reads are pre-decoded
   once at [create] into the flat side tables of [Decoded], and the
   cycle loop's dynamic structures are preallocated flat arrays:

   - fetch queue and decode latch are rings of mutable records instead
     of [Queue.t]s (no cell allocation per instruction);
   - the writeback event set is a ring-indexed event wheel instead of a
     per-cycle [Hashtbl] of lists (no bucket/cons allocation, no hash);
   - load replays live in a swap-buffered FIFO of int arrays;
   - execute and load extension match the instruction itself, as the
     interpreter's [Machine.step] does, reading pre-transformed
     immediates and absolute targets from the tables.

   Everything observable — architectural state, statistics counters, and
   the exact per-component order of power charges (floats accumulate, so
   charge order matters bit-for-bit) — is kept identical to the seed
   core. test/golden/core.digests pins it on the kernels and the fuzz
   corpus; the interpreter checks the architectural state of every
   fuzzed program. *)

(* Instruction fetched but not yet dispatched: one preallocated record
   per ring slot, fields overwritten in place. *)
type fetched = {
  mutable f_pc : int;
  mutable f_wi : int; (* word index into the side tables *)
  mutable f_pred_npc : int; (* -1: unknown target, fetch stalls until resolution *)
  mutable f_ras_ck : Predictor.checkpoint;
  mutable f_buffered : bool; (* classification decided at decode *)
}

type ring = { slots : fetched array; mutable head : int; mutable len : int }

let ring_create cap =
  {
    slots =
      Array.init cap (fun _ ->
          { f_pc = 0; f_wi = -1; f_pred_npc = 0; f_ras_ck = 0; f_buffered = false });
    head = 0;
    len = 0;
  }

let ring_cap r = Array.length r.slots
let ring_clear r = r.len <- 0

let ring_push r =
  let i = r.head + r.len in
  let i = if i >= Array.length r.slots then i - Array.length r.slots else i in
  r.len <- r.len + 1;
  r.slots.(i)

let ring_peek r = r.slots.(r.head)

let ring_pop r =
  r.head <- r.head + 1;
  if r.head = Array.length r.slots then r.head <- 0;
  r.len <- r.len - 1

(* Event wheel: writeback events indexed by [cycle land wheel_mask].
   The maximum schedule distance is bounded by the worst-case memory
   latency chain (TLB walk + L2 + DRAM bursts, well under 200 cycles),
   so a 256-slot wheel always has the target slot drained before any
   event can wrap onto it; [schedule] enforces the horizon. *)
let wheel_size = 256
let wheel_mask = wheel_size - 1
let ev_complete = 0
let ev_agen = 1

(* Per-loop decision record, keyed by the loop-ending instruction's pc —
   the same key the detector and NBLT use. Queryable after a run to
   compare the dynamic decisions with the static bufferability pass. *)
type loop_decision = {
  ld_head : int;
  ld_tail : int;
  ld_span : int;
  mutable ld_detections : int; (* detector hits at the tail *)
  mutable ld_nblt_filtered : int; (* detections suppressed by the NBLT *)
  mutable ld_attempts : int; (* buffering attempts started *)
  mutable ld_revokes : int;
  mutable ld_rv_inner : int; (* ld_revokes split by cause *)
  mutable ld_rv_left : int;
  mutable ld_rv_overflow : int;
  mutable ld_rv_mispredict : int;
  mutable ld_nblt_registered : int; (* revokes that registered in the NBLT *)
  mutable ld_promotions : int; (* reached Code Reuse *)
  mutable ld_reuse_committed : int; (* committed instructions supplied by reuse *)
}

type t = {
  cfg : Config.t;
  program : Program.t;
  dec : Decoded.t; (* pre-decoded side tables, built once *)
  memory : Store.t;
  hier : Hierarchy.t;
  pred : Predictor.t;
  rob : Rob.t;
  iq : Iq.t;
  lsq : Lsq.t;
  fu : Fu.t;
  acct : Account.t;
  reuse : Reuse_state.t;
  nblt : Nblt.t;
  lc : Loopcache.t option; (* related-work baseline, Config.loop_cache *)
  arch_i : int array;
  arch_f : float array;
  map : int array; (* logical register -> ROB index, -1 = architectural *)
  mutable fetch_pc : int; (* -1: blocked until redirect *)
  mutable fetch_stall_until : int;
  fetch_q : ring;
  decode_latch : ring;
  mutable now : int;
  mutable seq_ctr : int;
  (* Event wheel, struct-of-arrays per slot; [ev_n.(i)] live events. *)
  ev_n : int array;
  ev_seq : int array array;
  ev_rob : int array array;
  ev_kind : int array array;
  ev_addr : int array array;
  ev_di : int array array;
  ev_dtag : int array array;
  ev_df : float array array;
  mutable ev_ord : int array; (* drain-order scratch *)
  (* Replay FIFO: arrival-ordered parallel arrays, swap-buffered. *)
  mutable rp_n : int;
  mutable rp_seq : int array;
  mutable rp_rob : int array;
  mutable rp_addr : int array;
  mutable rp2_seq : int array;
  mutable rp2_rob : int array;
  mutable rp2_addr : int array;
  (* Issue-select scratch, [issue_width] wide, reset every cycle: the
     ids of the oldest ready slots and their sequence numbers. *)
  issue_cand : int array;
  issue_cand_seq : int array;
  (* Reuse-attribution memo: wi -> smallest logged window containing it
     (None = outside every window); invalidated when a window is logged. *)
  attr_memo : loop_decision option option array;
  loop_at : loop_decision option array; (* [loop_log] by the tail's wi *)
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
  (* Keyed by tail pc. Lookups go through [loop_at]; the table is kept for
     its iteration order, which breaks ties in the attribution search. *)
  loop_log : (int, loop_decision) Hashtbl.t;
  mutable cur_reuse : loop_decision option; (* the last promoted loop *)
  (* Observability. The tracer defaults to the null sink (one dead branch
     per emission site); the sampler is absent unless attached. *)
  tracer : Tracer.t;
  sampler : Sampler.t option;
  counter_stride : int; (* cadence of the tracer's counter tracks *)
  mutable samp_last_cycle : int;
  mutable samp_last_committed : int;
  samp_last_energy : float array; (* per Component.group, at the last sample *)
}

type stop = Halted | Cycle_limit

(* Sample channels, in recording order; callers attaching a sampler must
   create it with exactly these (see [sample_channels] in the interface). *)
let sample_channels =
  [
    "ipc"; "iq"; "rob"; "lsq"; "power-icache"; "power-bpred"; "power-iq";
    "power-overhead"; "power-other"; "power-total";
  ]

let sample_groups =
  [| Component.G_icache; G_bpred; G_iq; G_overhead; G_other |]

let create ?tracer ?sampler cfg program =
  Config.validate cfg;
  let tracer = match tracer with Some tr -> tr | None -> Tracer.null () in
  if Tracer.enabled tracer then begin
    Tracer.set_thread_name tracer ~tid:0 "reuse-engine";
    Tracer.set_thread_name tracer ~tid:1 "pipeline-events"
  end;
  (match sampler with
  | Some s when Sampler.channels s <> sample_channels ->
      invalid_arg "Processor.create: sampler channels must be Processor.sample_channels"
  | Some _ | None -> ());
  let memory = Store.create () in
  Program.load program ~write_word:(Store.write_word memory);
  let arch_i = Array.make 32 0 in
  arch_i.(Reg.sp) <- Machine.default_sp;
  {
    cfg;
    program;
    dec = Decoded.of_program program;
    memory;
    hier = Hierarchy.create cfg.Config.mem;
    pred = Predictor.create cfg.Config.bpred;
    rob = Rob.create cfg.Config.rob_entries;
    iq = Iq.create cfg.Config.iq_entries;
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
    fetch_q = ring_create cfg.Config.fetch_queue;
    decode_latch = ring_create cfg.Config.decode_width;
    now = 0;
    seq_ctr = 0;
    ev_n = Array.make wheel_size 0;
    ev_seq = Array.init wheel_size (fun _ -> Array.make 8 0);
    ev_rob = Array.init wheel_size (fun _ -> Array.make 8 0);
    ev_kind = Array.init wheel_size (fun _ -> Array.make 8 0);
    ev_addr = Array.init wheel_size (fun _ -> Array.make 8 0);
    ev_di = Array.init wheel_size (fun _ -> Array.make 8 0);
    ev_dtag = Array.init wheel_size (fun _ -> Array.make 8 0);
    ev_df = Array.init wheel_size (fun _ -> Array.make 8 0.);
    ev_ord = Array.make 16 0;
    rp_n = 0;
    rp_seq = Array.make 16 0;
    rp_rob = Array.make 16 0;
    rp_addr = Array.make 16 0;
    rp2_seq = Array.make 16 0;
    rp2_rob = Array.make 16 0;
    rp2_addr = Array.make 16 0;
    issue_cand = Array.make cfg.Config.issue_width 0;
    issue_cand_seq = Array.make cfg.Config.issue_width max_int;
    attr_memo = Array.make (max 1 (Array.length program.Program.code)) None;
    loop_at = Array.make (max 1 (Array.length program.Program.code)) None;
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
    cur_reuse = None;
    tracer;
    sampler;
    counter_stride =
      (match sampler with Some s -> Sampler.base_stride s | None -> 64);
    samp_last_cycle = 0;
    samp_last_committed = 0;
    samp_last_energy = Array.make (Array.length sample_groups) 0.;
  }

let loop_record t ~head ~tail =
  let wi = Decoded.wi_of_pc t.dec tail in
  match t.loop_at.(wi) with
  | Some r -> r
  | None ->
      let r =
        {
          ld_head = head;
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
      t.loop_at.(wi) <- Some r;
      Array.fill t.attr_memo 0 (Array.length t.attr_memo) None;
      r

let charge t c n = Account.add t.acct c n
let charge1 t c = Account.add t.acct c 1.

let grow_ints a n =
  let b = Array.make (2 * n) 0 in
  Array.blit a 0 b 0 n;
  b

let grow_wheel_slot t sl n =
  t.ev_seq.(sl) <- grow_ints t.ev_seq.(sl) n;
  t.ev_rob.(sl) <- grow_ints t.ev_rob.(sl) n;
  t.ev_kind.(sl) <- grow_ints t.ev_kind.(sl) n;
  t.ev_addr.(sl) <- grow_ints t.ev_addr.(sl) n;
  t.ev_di.(sl) <- grow_ints t.ev_di.(sl) n;
  t.ev_dtag.(sl) <- grow_ints t.ev_dtag.(sl) n;
  let bf = Array.make (2 * n) 0. in
  Array.blit t.ev_df.(sl) 0 bf 0 n;
  t.ev_df.(sl) <- bf

(* Append an event to [cycle]'s wheel slot and return its index there.
   Only address-generation events carry FP store data; their caller
   writes it into [ev_df] at that index, so no float crosses a call. *)
let schedule t ~cycle ~seq ~rob ~kind ~addr ~di ~dtag =
  if cycle <= t.now || cycle - t.now >= wheel_size then
    failwith "Processor.schedule: event outside the wheel horizon";
  let sl = cycle land wheel_mask in
  let n = t.ev_n.(sl) in
  if n = Array.length t.ev_seq.(sl) then grow_wheel_slot t sl n;
  t.ev_seq.(sl).(n) <- seq;
  t.ev_rob.(sl).(n) <- rob;
  t.ev_kind.(sl).(n) <- kind;
  t.ev_addr.(sl).(n) <- addr;
  t.ev_di.(sl).(n) <- di;
  t.ev_dtag.(sl).(n) <- dtag;
  t.ev_n.(sl) <- n + 1;
  n

let schedule_complete t ~cycle ~seq ~rob =
  ignore (schedule t ~cycle ~seq ~rob ~kind:ev_complete ~addr:0 ~di:0 ~dtag:(-1))

let next_seq t =
  t.seq_ctr <- t.seq_ctr + 1;
  t.seq_ctr

let push_replay t ~seq ~rob ~addr =
  let n = t.rp_n in
  if n = Array.length t.rp_seq then begin
    let grow a =
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.rp_seq <- grow t.rp_seq;
    t.rp_rob <- grow t.rp_rob;
    t.rp_addr <- grow t.rp_addr
  end;
  t.rp_seq.(n) <- seq;
  t.rp_rob.(n) <- rob;
  t.rp_addr.(n) <- addr;
  t.rp_n <- n + 1

(* Memory hierarchy wrappers that charge the power account, including the
   L2 accesses triggered by L1 misses. *)
let fetch_latency t addr =
  let l1_before = Cache.accesses (Hierarchy.l1i t.hier) in
  let l2_before = Cache.accesses (Hierarchy.l2 t.hier) in
  let lat = Hierarchy.fetch_at t.hier ~now:t.now ~addr in
  (* With a filter cache, an L0 hit never reaches the L1I; charging by
     access deltas attributes the energy to the structure actually used. *)
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
  let lat = Hierarchy.data_at t.hier ~now:t.now ~addr ~write in
  charge1 t Component.Dcache;
  charge1 t Component.Dtlb;
  let dl2 = Cache.accesses (Hierarchy.l2 t.hier) - l2_before in
  if dl2 > 0 then charge t Component.L2 (float_of_int dl2);
  lat

(* Resolve source operand [port] (0 or 1) of slot [s] through the map
   table; registers are plain ints ([0..31] integer file, [32..63] FP
   file) so no tuple or option is allocated. *)
let read_src t (s : Iq.slot) ~port r =
  if r < 0 then Iq.set_src t.iq s ~port ~tag:(-1) ~value_i:0 ~value_f:0.
  else begin
    charge1 t Component.Regfile;
    let idx = t.map.(r) in
    if idx = -1 then
      if r >= 32 then Iq.set_src t.iq s ~port ~tag:(-1) ~value_i:0 ~value_f:t.arch_f.(r - 32)
      else Iq.set_src t.iq s ~port ~tag:(-1) ~value_i:t.arch_i.(r) ~value_f:0.
    else begin
      let e = Rob.entry t.rob idx in
      if e.Rob.completed then
        Iq.set_src t.iq s ~port ~tag:(-1) ~value_i:e.Rob.value_i
          ~value_f:(Rob.value_f t.rob idx)
      else Iq.set_src t.iq s ~port ~tag:idx ~value_i:0 ~value_f:0.
    end
  end

(* Execute the non-memory instruction in slot [s] straight into its ROB
   entry: one match on the instruction, as [Machine.step] does, with
   immediates and branch/jump targets read pre-transformed from the side
   tables. Memory operations never reach this (they go through address
   generation); nop and halt keep the defaults. *)
let execute_into t (s : Iq.slot) =
  let d = t.dec in
  let idx = s.Iq.rob_idx in
  let e = Rob.entry t.rob idx in
  let wi = s.Iq.wi and pc = s.Iq.pc in
  let s1i = s.Iq.src1_i and s2i = s.Iq.src2_i in
  let s1f = Iq.src1_f t.iq s and s2f = Iq.src2_f t.iq s in
  let next = pc + 4 in
  e.Rob.value_i <- 0;
  Rob.set_value_f t.rob idx 0.;
  e.Rob.taken <- false;
  e.Rob.actual_npc <- next;
  match d.Decoded.code.(wi) with
  | Insn.Alu (op, _, _, _) -> e.Rob.value_i <- Semantics.alu op s1i s2i
  | Alui (op, _, _, _) -> e.Rob.value_i <- Semantics.alu op s1i d.Decoded.imm.(wi)
  | Shift (op, _, _, _) -> e.Rob.value_i <- Semantics.shift op s1i d.Decoded.imm.(wi)
  | Shiftv (op, _, _, _) -> e.Rob.value_i <- Semantics.shift op s1i s2i
  | Lui _ -> e.Rob.value_i <- d.Decoded.imm.(wi) (* pre-shifted *)
  | Mul _ -> e.Rob.value_i <- Semantics.mul s1i s2i
  | Div _ -> e.Rob.value_i <- Semantics.div s1i s2i
  | Fpu (op, _, _, _) -> Rob.set_value_f t.rob idx (Semantics.fpu op s1f s2f)
  | Fcmp (op, _, _, _) -> e.Rob.value_i <- Semantics.fcmp op s1f s2f
  | Cvtsw _ -> Rob.set_value_f t.rob idx (Semantics.cvt_s_w s1i)
  | Cvtws _ -> e.Rob.value_i <- Semantics.cvt_w_s s1f
  | Br (cond, _, _, _) ->
      let taken = Semantics.branch_taken cond s1i s2i in
      e.Rob.taken <- taken;
      if taken then e.Rob.actual_npc <- d.Decoded.target.(wi)
  | J _ ->
      e.Rob.taken <- true;
      e.Rob.actual_npc <- d.Decoded.target.(wi)
  | Jal _ ->
      e.Rob.value_i <- next;
      e.Rob.taken <- true;
      e.Rob.actual_npc <- d.Decoded.target.(wi)
  | Jr _ ->
      e.Rob.taken <- true;
      e.Rob.actual_npc <- s1i
  | Jalr _ ->
      e.Rob.value_i <- next;
      e.Rob.taken <- true;
      e.Rob.actual_npc <- s1i
  | Lw _ | Lb _ | Lbu _ | Lh _ | Lhu _ | Sw _ | Sb _ | Sh _ | Lwf _ | Swf _ | Nop | Halt -> ()

(* ------------------------------------------------------------------ *)
(* Misprediction recovery and reuse-engine state transitions.          *)
(* ------------------------------------------------------------------ *)

let rebuild_map t =
  Array.fill t.map 0 (Array.length t.map) (-1);
  Rob.iter_oldest_first t.rob (fun idx e ->
      if e.Rob.dest >= 0 then t.map.(e.Rob.dest) <- idx)

let flush_front_end t =
  ring_clear t.fetch_q;
  ring_clear t.decode_latch

let revoke_buffering t ~register_nblt ~cause =
  let r =
    loop_record t ~head:t.reuse.Reuse_state.head ~tail:t.reuse.Reuse_state.tail
  in
  r.ld_revokes <- r.ld_revokes + 1;
  (match (cause : Reuse_state.revoke_cause) with
  | Rv_inner_loop -> r.ld_rv_inner <- r.ld_rv_inner + 1
  | Rv_left_loop -> r.ld_rv_left <- r.ld_rv_left + 1
  | Rv_overflow -> r.ld_rv_overflow <- r.ld_rv_overflow + 1
  | Rv_mispredict -> r.ld_rv_mispredict <- r.ld_rv_mispredict + 1);
  if Tracer.enabled t.tracer then
    Tracer.instant t.tracer ~now:t.now
      ~args:
        [
          ("head", Tracer.Int t.reuse.Reuse_state.head);
          ("tail", Tracer.Int t.reuse.Reuse_state.tail);
          ("cause", Tracer.Str (Reuse_state.cause_to_string cause));
          ("registered_nblt", Tracer.Int (if register_nblt then 1 else 0));
        ]
      ~cat:"reuse" "revoke";
  if register_nblt then begin
    r.ld_nblt_registered <- r.ld_nblt_registered + 1;
    charge1 t Component.Nblt;
    Nblt.insert ~now:t.now t.nblt t.reuse.Reuse_state.tail
  end;
  Iq.clear_classification t.iq;
  Reuse_state.revoke ~now:t.now t.reuse

let exit_reuse t =
  Iq.clear_classification t.iq;
  Iq.set_reuse_ptr t.iq 0;
  Reuse_state.exit_reuse ~now:t.now t.reuse

(* Conventional branch-misprediction recovery (Section 2.5), plus the
   revoke / reuse-exit that accompanies it in the buffering states. *)
let recover t (e : Rob.entry) =
  let seq = e.Rob.seq in
  if Tracer.enabled t.tracer then
    Tracer.instant t.tracer ~now:t.now
      ~args:[ ("pc", Tracer.Int e.Rob.pc); ("redirect", Tracer.Int e.Rob.actual_npc) ]
      ~cat:"pipeline" "pipeline-flush";
  Rob.squash_after t.rob ~seq ~f:(fun _ _ -> ());
  Lsq.squash_after t.lsq ~seq;
  Iq.squash_after t.iq ~seq;
  rebuild_map t;
  Predictor.restore t.pred e.Rob.ras_ck;
  flush_front_end t;
  t.fetch_pc <- e.Rob.actual_npc;
  t.fetch_stall_until <- t.now + 1;
  (* Drop replays younger than the redirect, keeping arrival order. *)
  let w = ref 0 in
  for i = 0 to t.rp_n - 1 do
    if t.rp_seq.(i) <= seq then begin
      t.rp_seq.(!w) <- t.rp_seq.(i);
      t.rp_rob.(!w) <- t.rp_rob.(i);
      t.rp_addr.(!w) <- t.rp_addr.(i);
      incr w
    end
  done;
  t.rp_n <- !w;
  Option.iter Loopcache.reset t.lc;
  match t.reuse.Reuse_state.state with
  | Reuse_state.Normal -> ()
  | Reuse_state.Buffering ->
      (* A wrong path inside the loop (including the loop exit) makes the
         loop non-bufferable; a mispredict older than the loop is a plain
         revoke. *)
      let in_loop = Reuse_state.in_loop t.reuse ~pc:e.Rob.pc in
      revoke_buffering t ~register_nblt:in_loop
        ~cause:(if in_loop then Reuse_state.Rv_left_loop else Reuse_state.Rv_mispredict)
  | Reuse_state.Reusing -> exit_reuse t

(* ------------------------------------------------------------------ *)
(* Commit stage.                                                       *)
(* ------------------------------------------------------------------ *)

let commit_one t (e : Rob.entry) =
  charge1 t Component.Rob;
  (match e.Rob.dest with
  | -1 -> ()
  | d ->
      charge1 t Component.Regfile;
      let head_idx = Rob.head t.rob in
      if d >= 32 then t.arch_f.(d - 32) <- Rob.value_f t.rob head_idx
      else t.arch_i.(d) <- e.Rob.value_i;
      if t.map.(d) = head_idx then t.map.(d) <- -1);
  if e.Rob.lsq_idx >= 0 then begin
    let le = Lsq.entry t.lsq e.Rob.lsq_idx in
    assert (Lsq.head_is t.lsq e.Rob.lsq_idx);
    if e.Rob.is_store then begin
      t.n_stores <- t.n_stores + 1;
      charge1 t Component.Lsq;
      ignore (data_latency t ~addr:le.Lsq.addr ~write:true);
      if le.Lsq.is_fp then
        Store.write_float t.memory le.Lsq.addr (Lsq.data_f t.lsq e.Rob.lsq_idx)
      else if le.Lsq.width = 1 then Store.write_byte t.memory le.Lsq.addr le.Lsq.data_i
      else if le.Lsq.width = 2 then Store.write_half t.memory le.Lsq.addr le.Lsq.data_i
      else Store.write_word t.memory le.Lsq.addr (Bits.to_u32 le.Lsq.data_i)
    end
    else t.n_loads <- t.n_loads + 1;
    Lsq.pop_head t.lsq
  end;
  (match t.dec.Decoded.kind.(e.Rob.wi) with
  | Insn.K_halt ->
      t.halted <- true;
      t.halt_pc <- e.Rob.pc;
      (* End-of-run drain: everything still in flight is younger than the
         halt and will never execute, so empty the queues (no power
         charges) — [occupancy] reads (0, 0, 0) once [run] returns
         [Halted]. The halt itself is still at the ROB head; the normal
         [pop_head] below removes it. *)
      Rob.squash_after t.rob ~seq:e.Rob.seq ~f:(fun _ _ -> ());
      Lsq.squash_after t.lsq ~seq:e.Rob.seq;
      Iq.clear t.iq;
      flush_front_end t;
      Array.fill t.ev_n 0 wheel_size 0;
      t.rp_n <- 0;
      if Tracer.enabled t.tracer then
        Tracer.instant t.tracer ~now:t.now
          ~args:[ ("pc", Tracer.Int e.Rob.pc) ]
          ~cat:"pipeline" "halted"
  | K_branch | K_jump | K_call | K_return | K_ijump | K_int | K_fp | K_load
  | K_store | K_nop ->
      ());
  if e.Rob.from_reuse then begin
    t.n_reuse_commit <- t.n_reuse_commit + 1;
    (* Attribute to the smallest logged window containing the pc; callee
       instructions (outside every window) go to the loop being reused.
       Memoized per word index — reuse commits the same few pcs millions
       of times and the window set changes only when a loop is first
       logged (which clears the memo). *)
    let wi = e.Rob.wi in
    let best =
      match t.attr_memo.(wi) with
      | Some b -> b
      | None ->
          let best = ref None in
          Hashtbl.iter
            (fun _ r ->
              if e.Rob.pc >= r.ld_head && e.Rob.pc <= r.ld_tail then
                match !best with
                | Some b when b.ld_span <= r.ld_span -> ()
                | _ -> best := Some r)
            t.loop_log;
          t.attr_memo.(wi) <- Some !best;
          !best
    in
    match best with
    | Some r -> r.ld_reuse_committed <- r.ld_reuse_committed + 1
    | None -> (
        match t.cur_reuse with
        | Some r -> r.ld_reuse_committed <- r.ld_reuse_committed + 1
        | None -> ())
  end;
  t.committed <- t.committed + 1;
  Rob.pop_head t.rob

let commit_stage t =
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < t.cfg.Config.commit_width && not t.halted do
    if Rob.count t.rob = 0 then continue_ := false
    else begin
      let e = Rob.entry t.rob (Rob.head t.rob) in
      if e.Rob.completed then begin
        commit_one t e;
        incr n
      end
      else continue_ := false
    end
  done

(* ------------------------------------------------------------------ *)
(* Writeback: completion and address-generation events.                *)
(* ------------------------------------------------------------------ *)

let complete t (e : Rob.entry) rob_idx =
  e.Rob.completed <- true;
  charge1 t Component.Rob;
  charge1 t Component.Resultbus;
  charge1 t Component.Iq_wakeup;
  let value_f = Rob.value_f t.rob rob_idx in
  Iq.wakeup t.iq ~tag:rob_idx ~value_i:e.Rob.value_i ~value_f;
  let n = Lsq.capture_data t.lsq ~tag:rob_idx ~value_i:e.Rob.value_i ~value_f in
  for k = 0 to n - 1 do
    let le = Lsq.entry t.lsq (Lsq.captured t.lsq k) in
    schedule_complete t ~cycle:(t.now + 1) ~seq:le.Lsq.seq ~rob:le.Lsq.rob_idx
  done;
  if e.Rob.is_ctrl then begin
    t.n_branches <- t.n_branches + 1;
    (* Predictor tables are trained at resolution in every issue-queue
       state (lookups are what gating suppresses). *)
    let kind = t.dec.Decoded.kind.(e.Rob.wi) in
    (match kind with
    | Insn.K_branch -> charge1 t Component.Bpred_dir
    | K_jump | K_call | K_return | K_ijump | K_int | K_fp | K_load | K_store
    | K_nop | K_halt ->
        ());
    if e.Rob.taken then charge1 t Component.Btb;
    Predictor.resolve_decoded t.pred ~pc:e.Rob.pc ~kind ~taken:e.Rob.taken
      ~target:e.Rob.actual_npc;
    if e.Rob.actual_npc <> e.Rob.pred_npc then begin
      t.n_mispredicts <- t.n_mispredicts + 1;
      recover t e
    end
  end

(* A load attempting to execute: forward or access the cache. The LSQ
   search is charged once, on the first attempt — replayed loads sleep in
   the queue and are re-checked without a fresh CAM search. *)
let start_load ?(charge_search = true) t ~rob_idx ~(e : Rob.entry) ~addr =
  let le = Lsq.entry t.lsq e.Rob.lsq_idx in
  if charge_search then charge1 t Component.Lsq;
  let src = Lsq.check_load t.lsq ~idx:e.Rob.lsq_idx ~addr ~width:le.Lsq.width in
  if src = Lsq.load_wait then false
  else if src >= 0 then begin
    (* Forward from the store in LSQ slot [src]: extend the low bits of
       its register value per the load's width and signedness. *)
    let raw = (Lsq.entry t.lsq src).Lsq.data_i in
    (match t.dec.Decoded.code.(e.Rob.wi) with
    | Insn.Lw _ -> e.Rob.value_i <- Bits.of_i32 raw
    | Lb _ -> e.Rob.value_i <- Bits.sign_extend raw ~width:8
    | Lbu _ -> e.Rob.value_i <- raw land 0xFF
    | Lh _ -> e.Rob.value_i <- Bits.sign_extend raw ~width:16
    | Lhu _ -> e.Rob.value_i <- raw land 0xFFFF
    | Lwf _ -> Rob.set_value_f t.rob rob_idx (Lsq.data_f t.lsq src)
    | Alu _ | Alui _ | Shift _ | Shiftv _ | Lui _ | Mul _ | Div _ | Fpu _ | Fcmp _ | Cvtsw _
    | Cvtws _ | Sw _ | Sb _ | Sh _ | Swf _ | Br _ | J _ | Jal _ | Jr _ | Jalr _ | Nop | Halt ->
        ());
    schedule_complete t ~cycle:(t.now + 1) ~seq:e.Rob.seq ~rob:rob_idx;
    true
  end
  else begin
    let wi = e.Rob.wi in
    let lat =
      (* Wrong-path accesses may compute garbage addresses; an address is
         usable when non-negative and aligned to the access width. *)
      if addr >= 0 && addr land t.dec.Decoded.amask.(wi) = 0 then begin
        let lat = data_latency t ~addr ~write:false in
        let m = t.memory in
        (match t.dec.Decoded.code.(wi) with
        | Insn.Lw _ -> e.Rob.value_i <- Bits.of_i32 (Store.read_word m addr)
        | Lb _ -> e.Rob.value_i <- Bits.sign_extend (Store.read_byte m addr) ~width:8
        | Lbu _ -> e.Rob.value_i <- Store.read_byte m addr
        | Lh _ -> e.Rob.value_i <- Bits.sign_extend (Store.read_half m addr) ~width:16
        | Lhu _ -> e.Rob.value_i <- Store.read_half m addr
        | Lwf _ -> Rob.set_value_f t.rob rob_idx (Store.read_float m addr)
        | Alu _ | Alui _ | Shift _ | Shiftv _ | Lui _ | Mul _ | Div _ | Fpu _ | Fcmp _
        | Cvtsw _ | Cvtws _ | Sw _ | Sb _ | Sh _ | Swf _ | Br _ | J _ | Jal _ | Jr _ | Jalr _
        | Nop | Halt ->
            ());
        lat
      end
      else 1 (* wrong-path garbage address: complete without touching memory *)
    in
    schedule_complete t ~cycle:(t.now + lat) ~seq:e.Rob.seq ~rob:rob_idx;
    true
  end

(* The address-generation event at index [i] of wheel slot [sl]. *)
let process_agen t ~sl ~i =
  let seq = t.ev_seq.(sl).(i) and rob = t.ev_rob.(sl).(i) and addr = t.ev_addr.(sl).(i) in
  let e = Rob.entry t.rob rob in
  if e.Rob.seq = seq then begin
    let le = Lsq.entry t.lsq e.Rob.lsq_idx in
    le.Lsq.addr <- addr;
    le.Lsq.addr_ready <- true;
    charge1 t Component.Lsq;
    if e.Rob.is_store then begin
      let dtag = t.ev_dtag.(sl).(i) in
      if dtag = -1 then begin
        le.Lsq.data_i <- t.ev_di.(sl).(i);
        Lsq.set_data_f t.lsq e.Rob.lsq_idx t.ev_df.(sl).(i);
        le.Lsq.data_ready <- true;
        (* The store has done all its execute-stage work. *)
        schedule_complete t ~cycle:(t.now + 1) ~seq ~rob
      end
      else begin
        (* Address is known; the data operand is still in flight and will
           arrive over the result bus. *)
        let producer = Rob.entry t.rob dtag in
        if producer.Rob.completed then begin
          le.Lsq.data_i <- producer.Rob.value_i;
          Lsq.set_data_f t.lsq e.Rob.lsq_idx (Rob.value_f t.rob dtag);
          le.Lsq.data_ready <- true;
          schedule_complete t ~cycle:(t.now + 1) ~seq ~rob
        end
        else Lsq.wait_data t.lsq le ~tag:dtag
      end
    end
    else if not (start_load t ~rob_idx:rob ~e ~addr) then
      push_replay t ~seq ~rob ~addr
  end

let writeback_stage t =
  let sl = t.now land wheel_mask in
  let n = t.ev_n.(sl) in
  if n > 0 then begin
    (* Snapshot the slot: events scheduled while draining always target a
       strictly later cycle, hence a different wheel slot. *)
    t.ev_n.(sl) <- 0;
    let seqs = t.ev_seq.(sl) in
    let robs = t.ev_rob.(sl) in
    let kinds = t.ev_kind.(sl) in
    if Array.length t.ev_ord < n then t.ev_ord <- Array.make (2 * n) 0;
    let ord = t.ev_ord in
    for i = 0 to n - 1 do
      ord.(i) <- i
    done;
    (* Drain order: sequence ascending; equal sequences in reverse
       insertion order (the seed stable-sorted a cons-built list, so the
       later insertion comes first within a sequence number). *)
    for i = 1 to n - 1 do
      let x = ord.(i) in
      let j = ref (i - 1) in
      while
        !j >= 0
        && (let y = ord.(!j) in
            seqs.(y) > seqs.(x) || (seqs.(y) = seqs.(x) && y < x))
      do
        ord.(!j + 1) <- ord.(!j);
        decr j
      done;
      ord.(!j + 1) <- x
    done;
    for k = 0 to n - 1 do
      let i = ord.(k) in
      let rob = robs.(i) in
      let seq = seqs.(i) in
      let e = Rob.entry t.rob rob in
      if e.Rob.seq = seq && not e.Rob.completed then
        if kinds.(i) = ev_complete then complete t e rob else process_agen t ~sl ~i
    done
  end

let replay_stage t =
  let n = t.rp_n in
  if n > 0 then begin
    (* Swap the arrival-ordered FIFO into scratch; failed attempts are
       re-appended in processing order, exactly the order the seed's
       cons-and-reverse produced. *)
    let seqs = t.rp_seq and robs = t.rp_rob and addrs = t.rp_addr in
    t.rp_seq <- t.rp2_seq;
    t.rp_rob <- t.rp2_rob;
    t.rp_addr <- t.rp2_addr;
    t.rp2_seq <- seqs;
    t.rp2_rob <- robs;
    t.rp2_addr <- addrs;
    t.rp_n <- 0;
    for i = 0 to n - 1 do
      let seq = seqs.(i) and rob = robs.(i) and addr = addrs.(i) in
      let e = Rob.entry t.rob rob in
      if e.Rob.seq = seq && not e.Rob.completed then
        if not (start_load ~charge_search:false t ~rob_idx:rob ~e ~addr) then
          push_replay t ~seq ~rob ~addr
    done
  end

(* ------------------------------------------------------------------ *)
(* Issue stage: oldest-first selection of ready instructions.          *)
(* ------------------------------------------------------------------ *)

let issue_slot t (s : Iq.slot) =
  Iq.mark_issued t.iq s;
  charge1 t Component.Iq_payload;
  (match s.Iq.fu with
  | Insn.FU_ialu -> charge1 t Component.Ialu
  | FU_imult -> charge1 t Component.Imult
  | FU_fpalu -> charge1 t Component.Fpalu
  | FU_fpmult -> charge1 t Component.Fpmult
  | FU_mem -> charge1 t Component.Ialu (* address generation adder *)
  | FU_none -> ());
  if s.Iq.is_mem then begin
    let addr = Bits.add32 s.Iq.src1_i t.dec.Decoded.imm.(s.Iq.wi) in
    let cycle = t.now + 1 in
    let n =
      schedule t ~cycle ~seq:s.Iq.seq ~rob:s.Iq.rob_idx ~kind:ev_agen ~addr ~di:s.Iq.src2_i
        ~dtag:s.Iq.src2_tag
    in
    t.ev_df.(cycle land wheel_mask).(n) <- Iq.src2_f t.iq s
  end
  else begin
    execute_into t s;
    schedule_complete t ~cycle:(t.now + s.Iq.lat) ~seq:s.Iq.seq ~rob:s.Iq.rob_idx
  end;
  if not s.Iq.reusable then Iq.kill t.iq s

let issue_stage t =
  let width = t.cfg.Config.issue_width in
  if Iq.count t.iq > 0 then charge1 t Component.Iq_select;
  (* Collect the [width] oldest ready instructions from the ready list by
     insertion into a running top-[width] table (the list is not in age
     order, so order by sequence number — unique, so list order cannot
     matter). *)
  let cand = t.issue_cand in
  let cand_seq = t.issue_cand_seq in
  (* A loop, not [Array.fill]: that is a C call, every cycle. *)
  for k = 0 to width - 1 do
    cand_seq.(k) <- max_int
  done;
  let pool = Iq.slots t.iq in
  let id = ref (Iq.ready_first t.iq) in
  while !id >= 0 do
    let seq = pool.(!id).Iq.seq in
    let j = ref (width - 1) in
    if seq < cand_seq.(!j) then begin
      while !j > 0 && seq < cand_seq.(!j - 1) do
        cand_seq.(!j) <- cand_seq.(!j - 1);
        cand.(!j) <- cand.(!j - 1);
        decr j
      done;
      cand_seq.(!j) <- seq;
      cand.(!j) <- !id
    end;
    id := Iq.ready_next t.iq !id
  done;
  for k = 0 to width - 1 do
    if cand_seq.(k) < max_int then begin
      let s = pool.(cand.(k)) in
      if Fu.acquire t.fu s.Iq.fu ~now:t.now ~latency:s.Iq.lat ~pipelined:s.Iq.pipe
      then issue_slot t s
    end
  done

(* ------------------------------------------------------------------ *)
(* Dispatch steps shared by normal and reuse dispatch.                 *)
(* ------------------------------------------------------------------ *)

(* Claim and fill the ROB entry of one dispatched instance of word [wi]
   and, for a memory operation, its LSQ entry; returns the ROB index. *)
let claim_entries t ~seq ~wi ~pc ~pred_npc ~ras_ck ~from_reuse =
  let d = t.dec in
  let rob_idx = Rob.alloc t.rob in
  charge1 t Component.Rob;
  let e = Rob.entry t.rob rob_idx in
  e.Rob.seq <- seq;
  e.Rob.pc <- pc;
  e.Rob.wi <- wi;
  e.Rob.completed <- false;
  e.Rob.value_i <- 0;
  Rob.set_value_f t.rob rob_idx 0.;
  e.Rob.dest <- d.Decoded.dst.(wi);
  e.Rob.is_store <- d.Decoded.is_store.(wi);
  e.Rob.lsq_idx <- -1;
  e.Rob.is_ctrl <- d.Decoded.is_ctrl.(wi);
  e.Rob.pred_npc <- pred_npc;
  e.Rob.actual_npc <- pc + 4;
  e.Rob.taken <- false;
  e.Rob.ras_ck <- ras_ck;
  e.Rob.from_reuse <- from_reuse;
  if d.Decoded.is_mem.(wi) then begin
    let li = Lsq.alloc t.lsq in
    let le = Lsq.entry t.lsq li in
    le.Lsq.seq <- seq;
    le.Lsq.rob_idx <- rob_idx;
    le.Lsq.is_store <- e.Rob.is_store;
    le.Lsq.is_fp <- d.Decoded.is_fp_mem.(wi);
    le.Lsq.width <- d.Decoded.width.(wi);
    e.Rob.lsq_idx <- li
  end;
  rob_idx

(* Rename one instance of word [wi] into slot [s]: read both sources
   through the map table, then remap the destination — after the reads,
   so an instruction that reads its own destination register sees the
   older producer. *)
let rename_operands t (s : Iq.slot) ~wi ~seq ~rob_idx =
  let d = t.dec in
  charge1 t Component.Rename;
  read_src t s ~port:0 d.Decoded.r1.(wi);
  read_src t s ~port:1 d.Decoded.r2.(wi);
  s.Iq.seq <- seq;
  s.Iq.rob_idx <- rob_idx;
  let dst = d.Decoded.dst.(wi) in
  if dst >= 0 then t.map.(dst) <- rob_idx

(* ------------------------------------------------------------------ *)
(* Dispatch in Normal and Loop Buffering states.                       *)
(* ------------------------------------------------------------------ *)

(* Dispatch one decoded instruction; returns false on a structural stall. *)
let dispatch_one t (f : fetched) =
  let d = t.dec in
  let wi = f.f_wi in
  let buffered = f.f_buffered && t.reuse.Reuse_state.state = Reuse_state.Buffering in
  if Rob.is_full t.rob then false
  else if Iq.is_full t.iq then begin
    (* Queue exhausted while buffering a loop (e.g. a too-large procedure
       inside it): the loop is non-bufferable (Section 2.2.2). *)
    if buffered then revoke_buffering t ~register_nblt:true ~cause:Reuse_state.Rv_overflow;
    false
  end
  else if d.Decoded.is_mem.(wi) && Lsq.is_full t.lsq then false
  else begin
    let seq = next_seq t in
    let rob_idx =
      claim_entries t ~seq ~wi ~pc:f.f_pc ~pred_npc:f.f_pred_npc ~ras_ck:f.f_ras_ck
        ~from_reuse:false
    in
    let s = Iq.dispatch t.iq in
    rename_operands t s ~wi ~seq ~rob_idx;
    s.Iq.pc <- f.f_pc;
    s.Iq.wi <- wi;
    s.Iq.fu <- d.Decoded.fu.(wi);
    s.Iq.lat <- d.Decoded.lat.(wi);
    s.Iq.pipe <- d.Decoded.pipe.(wi);
    s.Iq.is_mem <- d.Decoded.is_mem.(wi);
    s.Iq.is_store <- d.Decoded.is_store.(wi);
    s.Iq.pred_npc <- f.f_pred_npc;
    Iq.enqueue t.iq s;
    charge1 t Component.Iq_payload;
    if buffered then begin
      s.Iq.reusable <- true;
      charge1 t Component.Lrl;
      t.reuse.Reuse_state.iter_count <- t.reuse.Reuse_state.iter_count + 1;
      (* Iteration boundary: the loop-ending instruction was dispatched. *)
      if f.f_pc = t.reuse.Reuse_state.tail then begin
        let iter_size = t.reuse.Reuse_state.iter_count in
        t.reuse.Reuse_state.iters_buffered <- t.reuse.Reuse_state.iters_buffered + 1;
        t.reuse.Reuse_state.iter_count <- 0;
        let continue_buffering =
          t.cfg.Config.buffer_multiple_iterations && Iq.free t.iq >= iter_size
        in
        if not continue_buffering then begin
          let r =
            loop_record t ~head:t.reuse.Reuse_state.head
              ~tail:t.reuse.Reuse_state.tail
          in
          r.ld_promotions <- r.ld_promotions + 1;
          t.cur_reuse <- Some r;
          Reuse_state.promote ~now:t.now t.reuse;
          Iq.set_reuse_ptr t.iq (Iq.first_reusable t.iq);
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
    && t.decode_latch.len > 0
    && t.reuse.Reuse_state.state <> Reuse_state.Reusing
  do
    let f = ring_peek t.decode_latch in
    if dispatch_one t f then begin
      (* [dispatch_one] may have promoted to Code Reuse and flushed the
         front-end queues, in which case the latch is now empty. *)
      if t.decode_latch.len > 0 then ring_pop t.decode_latch;
      decr budget
    end
    else continue_ := false
  done

(* ------------------------------------------------------------------ *)
(* Dispatch in Code Reuse state: the queue feeds rename itself.        *)
(* ------------------------------------------------------------------ *)

(* [allow_wrap] implements the paper's unidirectional scan: within one
   cycle the pointer only moves forward; it resets to the first buffered
   instruction after the last one is reused, so a wrap ends the cycle's
   dispatch group. *)
let reuse_dispatch_one t ~allow_wrap =
  let first = Iq.first_reusable t.iq in
  if first < 0 then false
  else begin
    let p = Iq.reuse_ptr t.iq in
    let needs_wrap = p >= Iq.count t.iq || not (Iq.at t.iq p).Iq.reusable in
    if needs_wrap && not allow_wrap then false
    else begin
      let rptr = if needs_wrap then first else p in
      let s = Iq.at t.iq rptr in
      if not s.Iq.issued then false (* previous instance still in flight *)
      else if Rob.is_full t.rob then false
      else if s.Iq.is_mem && Lsq.is_full t.lsq then false
      else begin
        let wi = s.Iq.wi in
        let seq = next_seq t in
        let rob_idx =
          claim_entries t ~seq ~wi ~pc:s.Iq.pc ~pred_npc:s.Iq.pred_npc
            ~ras_ck:(Predictor.checkpoint t.pred) ~from_reuse:true
        in
        (* Partial update (Section 2.4): only the register information,
           the ROB pointer and the sequence number change — the payload
           written at capture (wi, fu, latency, classification) is the
           point of reuse and stays. *)
        rename_operands t s ~wi ~seq ~rob_idx;
        Iq.mark_renamed t.iq s;
        s.Iq.reusable <- true;
        charge1 t Component.Lrl;
        charge t Component.Iq_payload Model.iq_partial_update_fraction;
        t.n_reuse_dispatch <- t.n_reuse_dispatch + 1;
        Iq.set_reuse_ptr t.iq (rptr + 1);
        true
      end
    end
  end

let dispatch_reuse t =
  let budget = ref t.cfg.Config.issue_width in
  let continue_ = ref true in
  (* The pointer reset after the last buffered instruction (Section 2.4)
     is modelled as free within the cycle: the buffered region behaves as
     a circular buffer for the "first n from the pointer" check. *)
  while !continue_ && !budget > 0 && t.reuse.Reuse_state.state = Reuse_state.Reusing do
    if reuse_dispatch_one t ~allow_wrap:true then decr budget else continue_ := false
  done

(* ------------------------------------------------------------------ *)
(* Decode stage: loop detection and classification (Section 2.1).      *)
(* ------------------------------------------------------------------ *)

(* A detector hit in Normal state: filter through the NBLT, then start
   buffering when the loop branch is predicted to loop back. *)
let handle_capture t (f : fetched) ~head ~tail =
  let ld = loop_record t ~head ~tail in
  ld.ld_detections <- ld.ld_detections + 1;
  charge1 t Component.Nblt;
  if Nblt.mem t.nblt tail then begin
    ld.ld_nblt_filtered <- ld.ld_nblt_filtered + 1;
    if Tracer.enabled t.tracer then
      Tracer.instant t.tracer ~now:t.now
        ~args:[ ("head", Tracer.Int head); ("tail", Tracer.Int tail) ]
        ~cat:"nblt" "nblt-suppress"
  end
  else if f.f_pred_npc = head then begin
    ld.ld_attempts <- ld.ld_attempts + 1;
    (* Detection works on the predicted target (Section 2.1): buffering
       begins with the second iteration, so it only makes sense when the
       branch is predicted to loop back. *)
    Reuse_state.start_buffering ~now:t.now t.reuse ~head ~tail;
    (* Everything already in the decode latch is older than this tail, so
       none of it belongs to the new buffer — not even an entry flagged by
       an attempt that was revoked earlier in this decode group. Clearing
       every ring slot covers the live entries; the rest are overwritten
       on push. *)
    Array.iter (fun g -> g.f_buffered <- false) t.decode_latch.slots
  end

let decode_reuse_hooks t (f : fetched) =
  if t.cfg.Config.reuse_enabled then begin
    let r = t.reuse in
    let dec = t.dec in
    let wi = f.f_wi in
    let iq_size = t.cfg.Config.iq_entries in
    match r.Reuse_state.state with
    | Reuse_state.Normal ->
        if dec.Decoded.is_ctrl.(wi) then charge1 t Component.Reuse_logic;
        let span = Decoded.loop_span dec wi in
        if span > 0 then begin
          let head = dec.Decoded.target.(wi) in
          let tail = f.f_pc in
          if span <= iq_size then begin
            if Tracer.enabled t.tracer then
              Tracer.instant t.tracer ~now:t.now
                ~args:
                  [
                    ("head", Tracer.Int head); ("tail", Tracer.Int tail);
                    ("span", Tracer.Int span);
                  ]
                ~cat:"detector" "loop-detected";
            handle_capture t f ~head ~tail
          end
          else if Tracer.enabled t.tracer then
            Tracer.instant t.tracer ~now:t.now
              ~args:[ ("tail", Tracer.Int tail); ("span", Tracer.Int span) ]
              ~cat:"detector" "loop-too-large"
        end
    | Reuse_state.Buffering ->
        let in_loop = Reuse_state.in_loop r ~pc:f.f_pc in
        let in_callee = r.Reuse_state.call_depth > 0 in
        f.f_buffered <- in_loop || in_callee;
        (match dec.Decoded.kind.(wi) with
        | Insn.K_call ->
            if f.f_buffered then
              r.Reuse_state.call_depth <- r.Reuse_state.call_depth + 1
        | K_return ->
            if in_callee then r.Reuse_state.call_depth <- r.Reuse_state.call_depth - 1
        | K_branch | K_jump | K_ijump | K_int | K_fp | K_load | K_store | K_nop | K_halt ->
            ());
        if (not in_loop) && not in_callee then
          (* The execution left the loop while buffering (Section 2.2.3). *)
          revoke_buffering t ~register_nblt:true ~cause:Reuse_state.Rv_left_loop
        else begin
          (* An inner loop makes the current loop non-bufferable. *)
          let span = Decoded.loop_span dec wi in
          if span > 0 && span <= iq_size && f.f_pc <> r.Reuse_state.tail then
            revoke_buffering t ~register_nblt:true ~cause:Reuse_state.Rv_inner_loop
        end
    | Reuse_state.Reusing -> ()
  end

let decode_stage t =
  if t.reuse.Reuse_state.state <> Reuse_state.Reusing then begin
    let room = t.cfg.Config.decode_width - t.decode_latch.len in
    for _ = 1 to room do
      if t.fetch_q.len > 0 && t.reuse.Reuse_state.state <> Reuse_state.Reusing
      then begin
        let f = ring_peek t.fetch_q in
        charge1 t Component.Decoder;
        decode_reuse_hooks t f;
        (* The hooks never flush the front end (promotion happens at
           dispatch), so the latch slot is always available. *)
        let g = ring_push t.decode_latch in
        g.f_pc <- f.f_pc;
        g.f_wi <- f.f_wi;
        g.f_pred_npc <- f.f_pred_npc;
        g.f_ras_ck <- f.f_ras_ck;
        g.f_buffered <- f.f_buffered;
        ring_pop t.fetch_q
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Fetch stage.                                                        *)
(* ------------------------------------------------------------------ *)

let fetch_stage t =
  if
    t.reuse.Reuse_state.state <> Reuse_state.Reusing
    && t.fetch_pc >= 0
    && t.now >= t.fetch_stall_until
    && t.fetch_q.len < ring_cap t.fetch_q
    && Decoded.valid t.dec t.fetch_pc
  then begin
    let dec = t.dec in
    (* The loop cache, when present and active, supplies the whole fetch
       group without touching the instruction cache or ITLB. *)
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
      let il1 = Hierarchy.l1i t.hier in
      let cur_line = ref (Cache.line_index il1 ~addr:t.fetch_pc) in
      let fetched = ref 0 in
      let continue_ = ref true in
      while
        !continue_ && !fetched < t.cfg.Config.fetch_width
        && t.fetch_q.len < ring_cap t.fetch_q
        && t.fetch_pc >= 0
      do
        (* Crossing into another cache line (sequentially or through a
           taken branch) costs another port access; a miss there ends the
           group and stalls the front end. Loop-cache-served groups never
           touch the line ports. *)
        if (not serve_lc) && Cache.line_index il1 ~addr:t.fetch_pc <> !cur_line
        then begin
          let lat = fetch_latency t t.fetch_pc in
          if lat > t.cfg.Config.mem.Hierarchy.l1i.Cache.hit_latency then begin
            t.fetch_stall_until <- t.now + lat;
            continue_ := false
          end
          else cur_line := Cache.line_index il1 ~addr:t.fetch_pc
        end;
        if !continue_ then begin
          if not (Decoded.valid t.dec t.fetch_pc) then continue_ := false
          else begin
            let pc = t.fetch_pc in
            let wi = Decoded.wi_of_pc dec pc in
            let kind = dec.Decoded.kind.(wi) in
            let pred_npc =
              if dec.Decoded.is_ctrl.(wi) then begin
                (match kind with
                | Insn.K_branch -> charge1 t Component.Bpred_dir
                | K_call | K_return -> charge1 t Component.Ras
                | K_jump | K_ijump | K_int | K_fp | K_load | K_store | K_nop | K_halt ->
                    ());
                charge1 t Component.Btb;
                Predictor.lookup_decoded t.pred ~pc ~kind
                  ~static_target:dec.Decoded.target.(wi)
              end
              else pc + 4
            in
            let f = ring_push t.fetch_q in
            f.f_pc <- pc;
            f.f_wi <- wi;
            f.f_pred_npc <- pred_npc;
            f.f_ras_ck <- Predictor.checkpoint t.pred;
            f.f_buffered <- false;
            (match t.lc with
            | Some lc ->
                (* Fill writes are charged; supplied reads were charged
                   once for the group. *)
                if Loopcache.state lc = Loopcache.Fill then charge1 t Component.Loopcache;
                Loopcache.on_fetch_decoded lc ~pc ~kind
                  ~static_target:dec.Decoded.target.(wi) ~pred_npc
            | None -> ());
            incr fetched;
            match kind with
            | Insn.K_halt ->
                t.fetch_pc <- -1;
                continue_ := false
            | K_branch | K_jump | K_call | K_return | K_ijump | K_int | K_fp
            | K_load | K_store | K_nop ->
                t.fetch_pc <- pred_npc;
                (* Unknown target: wait for the instruction to resolve. *)
                if pred_npc < 0 then continue_ := false
          end
        end
      done
    end
  end

(* ------------------------------------------------------------------ *)
(* Cycle loop.                                                         *)
(* ------------------------------------------------------------------ *)

(* Windowed sample over (samp_last_cycle, now]: IPC, queue occupancies and
   per-group power, in [sample_channels] order. *)
let sample_values t =
  let dc = float_of_int (max 1 (t.now - t.samp_last_cycle)) in
  let v = Array.make (5 + Array.length sample_groups) 0. in
  v.(0) <- float_of_int (t.committed - t.samp_last_committed) /. dc;
  v.(1) <- float_of_int (Iq.count t.iq);
  v.(2) <- float_of_int (Rob.count t.rob);
  v.(3) <- float_of_int (Lsq.count t.lsq);
  let total = ref 0. in
  Array.iteri
    (fun i g ->
      let e = Account.group_energy t.acct g in
      let p = (e -. t.samp_last_energy.(i)) /. dc in
      t.samp_last_energy.(i) <- e;
      total := !total +. p;
      v.(4 + i) <- p)
    sample_groups;
  v.(4 + Array.length sample_groups) <- !total;
  t.samp_last_cycle <- t.now;
  t.samp_last_committed <- t.committed;
  v

let sample_tick t =
  let sampler_due =
    match t.sampler with Some s -> Sampler.due s ~cycle:t.now | None -> false
  in
  let tracer_due = Tracer.enabled t.tracer && t.now mod t.counter_stride = 0 in
  if sampler_due || tracer_due then begin
    let v = sample_values t in
    (match t.sampler with
    | Some s when sampler_due -> Sampler.record s ~cycle:t.now v
    | Some _ | None -> ());
    if tracer_due then begin
      Tracer.counter t.tracer ~now:t.now ~name:"ipc" [ ("ipc", v.(0)) ];
      Tracer.counter t.tracer ~now:t.now ~name:"occupancy"
        [ ("iq", v.(1)); ("rob", v.(2)); ("lsq", v.(3)) ];
      Tracer.counter t.tracer ~now:t.now ~name:"power"
        (Array.to_list
           (Array.mapi
              (fun i g -> (Component.group_name g, v.(4 + i)))
              sample_groups))
    end
  end

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
    let removed = Iq.compact t.iq in
    if removed > 0 then charge t Component.Iq_payload (float_of_int removed)
  end;
  Account.tick t.acct;
  t.now <- t.now + 1;
  sample_tick t

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
let occupancy t = (Iq.count t.iq, Rob.count t.rob, Lsq.count t.lsq)

let arch_state t =
  {
    Machine.final_pc = t.halt_pc + 4;
    instructions = t.committed;
    int_regs = Array.copy t.arch_i;
    fp_regs = Array.copy t.arch_f;
    memory =
      List.rev (Store.fold_nonzero t.memory ~init:[] ~f:(fun acc addr v -> (addr, v) :: acc));
  }

let loop_decisions t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.loop_log []
  |> List.sort (fun a b -> compare a.ld_tail b.ld_tail)

let revokes d (cause : Reuse_state.revoke_cause) =
  match cause with
  | Rv_inner_loop -> d.ld_rv_inner
  | Rv_left_loop -> d.ld_rv_left
  | Rv_overflow -> d.ld_rv_overflow
  | Rv_mispredict -> d.ld_rv_mispredict

let account t = t.acct
let tracer t = t.tracer
let sampler t = t.sampler
let hierarchy t = t.hier
let reuse_state t = t.reuse
let loopcache t = t.lc
let config t = t.cfg

type stats = {
  cycles : int;
  committed : int;
  ipc : float;
  gated_cycles : int;
  gated_fraction : float;
  branches : int;
  mispredicts : int;
  loads : int;
  stores : int;
  reuse_dispatches : int;
  reuse_committed : int;
  buffer_attempts : int;
  revokes : int;
  promotions : int;
  reuse_exits : int;
  avg_power : float;
  icache_accesses : int;
  icache_misses : int;
  dcache_accesses : int;
  dcache_misses : int;
  skipped_cycles : int;
  ffwd_iterations : int;
}

let stats t =
  {
    cycles = t.now;
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

open Riq_util
open Riq_isa
open Riq_asm
open Riq_mem
open Riq_branch
open Riq_power
open Riq_ooo
open Riq_interp
open Riq_obs

(* The packed fast-path execution core. The pipeline structure is the
   seed core's (see [Slowpath], the locked reference copy the
   differential suite compares against), but every per-instruction
   property is pre-decoded once at [create] into the flat side tables of
   [Decoded], and the cycle loop's dynamic structures are preallocated
   flat arrays:

   - fetch queue and decode latch are rings of mutable records instead
     of [Queue.t]s (no cell allocation per instruction);
   - the writeback event set is a ring-indexed event wheel instead of a
     per-cycle [Hashtbl] of lists (no bucket/cons allocation, no hash);
   - load replays live in a swap-buffered FIFO of int arrays;
   - execute is a single dispatch on the dense opcode, reading
     pre-transformed immediates and absolute targets from the tables.

   Everything observable — architectural state, statistics counters, and
   the exact per-component order of power charges (floats accumulate, so
   charge order matters bit-for-bit) — is kept identical to the seed
   core; the differential suite asserts this on every corpus program. *)

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

(* Why a buffering attempt was revoked, one constructor per revoke site.
   The static side (Riq_analysis.Bufferability) predicts these; keeping
   per-cause counters is what lets the oracle cross-check prediction
   against execution. *)
type revoke_cause =
  | Rv_inner_loop (* decode saw a second capturable backward transfer *)
  | Rv_left_loop (* decode left the window before promotion *)
  | Rv_overflow (* the issue queue filled while buffering *)
  | Rv_mispredict (* recovery from a mispredict older than the loop *)

let revoke_cause_to_string = function
  | Rv_inner_loop -> "inner-loop"
  | Rv_left_loop -> "left-loop"
  | Rv_overflow -> "overflow"
  | Rv_mispredict -> "mispredict"

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

(* Ways of the steady-state decode cache: dispatch descriptors for the
   loop being buffered, installed when buffering starts and keyed by the
   loop tail — the same key the reuse IQ and the NBLT use. *)
let dc_ways = 16

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
  (* Decode cache: per-way loop window [dc_head..dc_tail] (word indices)
     and the dispatch descriptors covering it. *)
  dc_head : int array;
  dc_tail : int array;
  dc_desc : int array array;
  mutable dc_hits : int;
  mutable dc_installs : int;
  (* Issue-select scratch, [issue_width] wide, reset every cycle. *)
  issue_cand : Iq.slot array;
  issue_cand_seq : int array;
  (* Reuse-attribution memo: wi -> smallest logged window containing it
     (None = outside every window); invalidated when a window is logged. *)
  attr_memo : loop_decision option option array;
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
  loop_log : (int, loop_decision) Hashtbl.t; (* keyed by tail pc *)
  mutable cur_reuse_tail : int; (* tail of the last promoted loop, -1 = none *)
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
  let iq = Iq.create cfg.Config.iq_entries in
  {
    cfg;
    program;
    dec = Decoded.of_program program;
    memory;
    hier = Hierarchy.create cfg.Config.mem;
    pred = Predictor.create cfg.Config.bpred;
    rob = Rob.create cfg.Config.rob_entries;
    iq;
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
    dc_head = Array.make dc_ways (-1);
    dc_tail = Array.make dc_ways (-1);
    dc_desc = Array.init dc_ways (fun _ -> [||]);
    dc_hits = 0;
    dc_installs = 0;
    issue_cand = Array.make cfg.Config.issue_width (Iq.slots iq).(0);
    issue_cand_seq = Array.make cfg.Config.issue_width max_int;
    attr_memo = Array.make (max 1 (Array.length program.Program.code)) None;
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
    sampler;
    counter_stride =
      (match sampler with Some s -> Sampler.base_stride s | None -> 64);
    samp_last_cycle = 0;
    samp_last_committed = 0;
    samp_last_energy = Array.make (Array.length sample_groups) 0.;
  }

let loop_record t ~head ~tail =
  match Hashtbl.find_opt t.loop_log tail with
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
      Array.fill t.attr_memo 0 (Array.length t.attr_memo) None;
      r

let charge t c n = Account.add t.acct c n
let charge1 t c = Account.add t.acct c 1.

let schedule t ~cycle ~seq ~rob ~kind ~addr ~di ~df ~dtag =
  if cycle <= t.now || cycle - t.now >= wheel_size then
    failwith "Processor.schedule: event outside the wheel horizon";
  let sl = cycle land wheel_mask in
  let n = t.ev_n.(sl) in
  if n = Array.length t.ev_seq.(sl) then begin
    let grow a =
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.ev_seq.(sl) <- grow t.ev_seq.(sl);
    t.ev_rob.(sl) <- grow t.ev_rob.(sl);
    t.ev_kind.(sl) <- grow t.ev_kind.(sl);
    t.ev_addr.(sl) <- grow t.ev_addr.(sl);
    t.ev_di.(sl) <- grow t.ev_di.(sl);
    t.ev_dtag.(sl) <- grow t.ev_dtag.(sl);
    let bf = Array.make (2 * n) 0. in
    Array.blit t.ev_df.(sl) 0 bf 0 n;
    t.ev_df.(sl) <- bf
  end;
  t.ev_seq.(sl).(n) <- seq;
  t.ev_rob.(sl).(n) <- rob;
  t.ev_kind.(sl).(n) <- kind;
  t.ev_addr.(sl).(n) <- addr;
  t.ev_di.(sl).(n) <- di;
  t.ev_dtag.(sl).(n) <- dtag;
  t.ev_df.(sl).(n) <- df;
  t.ev_n.(sl) <- n + 1

let schedule_complete t ~cycle ~seq ~rob =
  schedule t ~cycle ~seq ~rob ~kind:ev_complete ~addr:0 ~di:0 ~df:0. ~dtag:(-1)

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

(* Resolve one source operand through the map table directly into the
   slot's src fields; registers are plain ints ([0..31] integer file,
   [32..63] FP file) so no tuple or option is allocated. *)
let read_src1 t (s : Iq.slot) r =
  if r < 0 then begin
    s.Iq.src1_tag <- -1;
    s.Iq.src1_i <- 0;
    s.Iq.src1_f <- 0.
  end
  else begin
    charge1 t Component.Regfile;
    let idx = t.map.(r) in
    if idx = -1 then
      if r >= 32 then begin
        s.Iq.src1_tag <- -1;
        s.Iq.src1_i <- 0;
        s.Iq.src1_f <- t.arch_f.(r - 32)
      end
      else begin
        s.Iq.src1_tag <- -1;
        s.Iq.src1_i <- t.arch_i.(r);
        s.Iq.src1_f <- 0.
      end
    else begin
      let e = Rob.entry t.rob idx in
      if e.Rob.completed then begin
        s.Iq.src1_tag <- -1;
        s.Iq.src1_i <- e.Rob.value_i;
        s.Iq.src1_f <- e.Rob.value_f
      end
      else begin
        s.Iq.src1_tag <- idx;
        s.Iq.src1_i <- 0;
        s.Iq.src1_f <- 0.
      end
    end
  end

let read_src2 t (s : Iq.slot) r =
  if r < 0 then begin
    s.Iq.src2_tag <- -1;
    s.Iq.src2_i <- 0;
    s.Iq.src2_f <- 0.
  end
  else begin
    charge1 t Component.Regfile;
    let idx = t.map.(r) in
    if idx = -1 then
      if r >= 32 then begin
        s.Iq.src2_tag <- -1;
        s.Iq.src2_i <- 0;
        s.Iq.src2_f <- t.arch_f.(r - 32)
      end
      else begin
        s.Iq.src2_tag <- -1;
        s.Iq.src2_i <- t.arch_i.(r);
        s.Iq.src2_f <- 0.
      end
    else begin
      let e = Rob.entry t.rob idx in
      if e.Rob.completed then begin
        s.Iq.src2_tag <- -1;
        s.Iq.src2_i <- e.Rob.value_i;
        s.Iq.src2_f <- e.Rob.value_f
      end
      else begin
        s.Iq.src2_tag <- idx;
        s.Iq.src2_i <- 0;
        s.Iq.src2_f <- 0.
      end
    end
  end

(* Operation groups of the dense opcode space, for the execute dispatch. *)
let alu_ops = [| Insn.Add; Sub; And; Or; Xor; Nor; Slt; Sltu |] (* 0..7 *)
let alui_ops = [| Insn.Add; And; Or; Xor; Slt; Sltu |] (* 8..13 *)
let shift_ops = [| Insn.Sll; Srl; Sra |] (* 14..16 imm, 17..19 variable *)
let fpu_ops = [| Insn.Fadd; Fsub; Fmul; Fdiv; Fsqrt; Fneg; Fabs; Fmov |] (* 23..30 *)
let fcmp_ops = [| Insn.Feq; Flt; Fle |] (* 31..33 *)
let br_conds = [| Insn.Beq; Bne; Blez; Bgtz; Bltz; Bgez |] (* 46..51 *)

(* Execute a non-memory instruction straight into its ROB entry: one
   dispatch on the dense opcode, immediates and branch/jump targets read
   pre-transformed from the side tables. Memory operations never reach
   this (they go through address generation); 57/58 (nop/halt) keep the
   defaults. *)
let execute_into t (e : Rob.entry) ~wi ~pc ~s1i ~s1f ~s2i ~s2f =
  let d = t.dec in
  let next = pc + 4 in
  e.Rob.value_i <- 0;
  e.Rob.value_f <- 0.;
  e.Rob.taken <- false;
  e.Rob.actual_npc <- next;
  let c = d.Decoded.exe.(wi) in
  if c < 8 then e.Rob.value_i <- Semantics.alu alu_ops.(c) s1i s2i
  else if c < 14 then
    e.Rob.value_i <- Semantics.alu alui_ops.(c - 8) s1i d.Decoded.imm.(wi)
  else if c < 17 then
    e.Rob.value_i <- Semantics.shift shift_ops.(c - 14) s1i d.Decoded.imm.(wi)
  else if c < 20 then
    e.Rob.value_i <- Semantics.shift shift_ops.(c - 17) s1i s2i
  else if c = 20 then e.Rob.value_i <- d.Decoded.imm.(wi) (* lui, pre-shifted *)
  else if c = 21 then e.Rob.value_i <- Semantics.mul s1i s2i
  else if c = 22 then e.Rob.value_i <- Semantics.div s1i s2i
  else if c < 31 then e.Rob.value_f <- Semantics.fpu fpu_ops.(c - 23) s1f s2f
  else if c < 34 then e.Rob.value_i <- Semantics.fcmp fcmp_ops.(c - 31) s1f s2f
  else if c = 34 then e.Rob.value_f <- Semantics.cvt_s_w s1i
  else if c = 35 then e.Rob.value_i <- Semantics.cvt_w_s s1f
  else if c >= 46 then
    if c <= 51 then begin
      let taken = Semantics.branch_taken br_conds.(c - 46) s1i s2i in
      e.Rob.taken <- taken;
      if taken then e.Rob.actual_npc <- d.Decoded.target.(wi)
    end
    else if c = 52 then begin
      e.Rob.taken <- true;
      e.Rob.actual_npc <- d.Decoded.target.(wi)
    end
    else if c = 53 then begin
      e.Rob.value_i <- next;
      e.Rob.taken <- true;
      e.Rob.actual_npc <- d.Decoded.target.(wi)
    end
    else if c <= 55 then begin
      e.Rob.taken <- true;
      e.Rob.actual_npc <- s1i
    end
    else if c = 56 then begin
      e.Rob.value_i <- next;
      e.Rob.taken <- true;
      e.Rob.actual_npc <- s1i
    end

(* The integer value a load produces, per the side tables' extension
   code: extract and extend the low bits per width and signedness. *)
let load_from_reg ext raw =
  if ext = Decoded.ext_word then Bits.of_i32 raw
  else if ext = Decoded.ext_s8 then Bits.sign_extend raw ~width:8
  else if ext = Decoded.ext_u8 then raw land 0xFF
  else if ext = Decoded.ext_s16 then Bits.sign_extend raw ~width:16
  else raw land 0xFFFF

let load_from_memory t ext addr =
  if ext = Decoded.ext_word then Bits.of_i32 (Store.read_word t.memory addr)
  else if ext = Decoded.ext_s8 then Bits.sign_extend (Store.read_byte t.memory addr) ~width:8
  else if ext = Decoded.ext_u8 then Store.read_byte t.memory addr
  else if ext = Decoded.ext_s16 then Bits.sign_extend (Store.read_half t.memory addr) ~width:16
  else Store.read_half t.memory addr

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
  (match cause with
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
          ("cause", Tracer.Str (revoke_cause_to_string cause));
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
        ~cause:(if in_loop then Rv_left_loop else Rv_mispredict)
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
      if d >= 32 then t.arch_f.(d - 32) <- e.Rob.value_f
      else t.arch_i.(d) <- e.Rob.value_i;
      let head_idx = Rob.head t.rob in
      if t.map.(d) = head_idx then t.map.(d) <- -1);
  if e.Rob.lsq_idx >= 0 then begin
    let le = Lsq.entry t.lsq e.Rob.lsq_idx in
    assert (Lsq.head_is t.lsq e.Rob.lsq_idx);
    if e.Rob.is_store then begin
      t.n_stores <- t.n_stores + 1;
      charge1 t Component.Lsq;
      ignore (data_latency t ~addr:le.Lsq.addr ~write:true);
      if le.Lsq.is_fp then Store.write_float t.memory le.Lsq.addr le.Lsq.data_f
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
        match Hashtbl.find_opt t.loop_log t.cur_reuse_tail with
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
  Iq.wakeup t.iq ~tag:rob_idx ~value_i:e.Rob.value_i ~value_f:e.Rob.value_f;
  (match Lsq.capture_data t.lsq ~tag:rob_idx ~value_i:e.Rob.value_i ~value_f:e.Rob.value_f with
  | [] -> ()
  | captured ->
      List.iter
        (fun (store_rob, store_seq) ->
          schedule_complete t ~cycle:(t.now + 1) ~seq:store_seq ~rob:store_rob)
        captured);
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
  match Lsq.check_load t.lsq ~idx:e.Rob.lsq_idx ~addr ~width:le.Lsq.width with
  | Lsq.Wait -> false
  | Lsq.Forward se ->
      if le.Lsq.is_fp then e.Rob.value_f <- se.Lsq.data_f
      else e.Rob.value_i <- load_from_reg t.dec.Decoded.ext.(e.Rob.wi) se.Lsq.data_i;
      schedule_complete t ~cycle:(t.now + 1) ~seq:e.Rob.seq ~rob:rob_idx;
      true
  | Lsq.Access ->
      let wi = e.Rob.wi in
      let lat =
        (* Wrong-path accesses may compute garbage addresses; an address
           is usable when non-negative and aligned to the access width. *)
        if addr >= 0 && addr land t.dec.Decoded.amask.(wi) = 0 then begin
          let lat = data_latency t ~addr ~write:false in
          if le.Lsq.is_fp then e.Rob.value_f <- Store.read_float t.memory addr
          else e.Rob.value_i <- load_from_memory t t.dec.Decoded.ext.(wi) addr;
          lat
        end
        else 1 (* wrong-path garbage address: complete without touching memory *)
      in
      schedule_complete t ~cycle:(t.now + lat) ~seq:e.Rob.seq ~rob:rob_idx;
      true

let process_agen t ~seq ~rob ~addr ~di ~df ~dtag =
  let e = Rob.entry t.rob rob in
  if e.Rob.seq = seq then begin
    let le = Lsq.entry t.lsq e.Rob.lsq_idx in
    le.Lsq.addr <- addr;
    le.Lsq.addr_ready <- true;
    charge1 t Component.Lsq;
    if e.Rob.is_store then begin
      if dtag = -1 then begin
        le.Lsq.data_i <- di;
        le.Lsq.data_f <- df;
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
          le.Lsq.data_f <- producer.Rob.value_f;
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
    let addrs = t.ev_addr.(sl) in
    let dis = t.ev_di.(sl) in
    let dtags = t.ev_dtag.(sl) in
    let dfs = t.ev_df.(sl) in
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
        if kinds.(i) = ev_complete then complete t e rob
        else
          process_agen t ~seq ~rob ~addr:addrs.(i) ~di:dis.(i) ~df:dfs.(i)
            ~dtag:dtags.(i)
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
  let e = Rob.entry t.rob s.Iq.rob_idx in
  if s.Iq.is_mem then begin
    let addr = Bits.add32 s.Iq.src1_i t.dec.Decoded.imm.(s.Iq.wi) in
    schedule t ~cycle:(t.now + 1) ~seq:s.Iq.seq ~rob:s.Iq.rob_idx ~kind:ev_agen
      ~addr ~di:s.Iq.src2_i ~df:s.Iq.src2_f ~dtag:s.Iq.src2_tag
  end
  else begin
    execute_into t e ~wi:s.Iq.wi ~pc:s.Iq.pc ~s1i:s.Iq.src1_i ~s1f:s.Iq.src1_f
      ~s2i:s.Iq.src2_i ~s2f:s.Iq.src2_f;
    schedule_complete t ~cycle:(t.now + s.Iq.lat) ~seq:s.Iq.seq ~rob:s.Iq.rob_idx
  end;
  if not s.Iq.reusable then Iq.kill t.iq s

(* Top-level (closure-free) ready-ring walk: insertion into the running
   top-[width] youngest-seq candidate table. *)
let rec select_scan (rdy : Iq.slot) (cand : Iq.slot array) cand_seq width (s : Iq.slot) =
  if s != rdy then begin
    let j = ref (width - 1) in
    if s.Iq.seq < cand_seq.(!j) then begin
      while !j > 0 && s.Iq.seq < cand_seq.(!j - 1) do
        cand_seq.(!j) <- cand_seq.(!j - 1);
        cand.(!j) <- cand.(!j - 1);
        decr j
      done;
      cand_seq.(!j) <- s.Iq.seq;
      cand.(!j) <- s
    end;
    select_scan rdy cand cand_seq width s.Iq.r_next
  end

let issue_stage t =
  let width = t.cfg.Config.issue_width in
  if Iq.count t.iq > 0 then charge1 t Component.Iq_select;
  (* Collect the [width] oldest ready instructions from the ready ring
     (the ring is not in age order during Code Reuse, so order by
     sequence number — unique, so ring order cannot matter). *)
  let cand = t.issue_cand in
  let cand_seq = t.issue_cand_seq in
  Array.fill cand_seq 0 width max_int;
  let rdy = Iq.ready t.iq in
  select_scan rdy cand cand_seq width rdy.Iq.r_next;
  for k = 0 to width - 1 do
    if cand_seq.(k) < max_int then begin
      let s = cand.(k) in
      if Fu.acquire t.fu s.Iq.fu ~now:t.now ~latency:s.Iq.lat ~pipelined:s.Iq.pipe
      then issue_slot t s
    end
  done

(* ------------------------------------------------------------------ *)
(* Dispatch (rename + queue): normal mode.                             *)
(* ------------------------------------------------------------------ *)

let fill_rob_entry t ~rob_idx ~seq ~pc ~wi ~pred_npc ~ras_ck ~from_reuse ~dst
    ~is_store ~is_ctrl =
  let e = Rob.entry t.rob rob_idx in
  e.Rob.seq <- seq;
  e.Rob.pc <- pc;
  e.Rob.wi <- wi;
  e.Rob.completed <- false;
  e.Rob.value_i <- 0;
  e.Rob.value_f <- 0.;
  e.Rob.dest <- dst;
  e.Rob.is_store <- is_store;
  e.Rob.lsq_idx <- -1;
  e.Rob.is_ctrl <- is_ctrl;
  e.Rob.pred_npc <- pred_npc;
  e.Rob.actual_npc <- pc + 4;
  e.Rob.taken <- false;
  e.Rob.ras_ck <- ras_ck;
  e.Rob.from_reuse <- from_reuse;
  e

let rename_into_slot t (s : Iq.slot) ~seq ~rob_idx ~pc ~wi ~pred_npc ~d =
  charge1 t Component.Rename;
  read_src1 t s (Decoded.d_r1 d);
  read_src2 t s (Decoded.d_r2 d);
  s.Iq.seq <- seq;
  s.Iq.rob_idx <- rob_idx;
  s.Iq.pc <- pc;
  s.Iq.wi <- wi;
  s.Iq.fu <- Decoded.d_fu d;
  s.Iq.lat <- Decoded.d_lat d;
  s.Iq.pipe <- Decoded.d_pipe d;
  s.Iq.is_mem <- Decoded.d_is_mem d;
  s.Iq.is_store <- Decoded.d_is_store d;
  s.Iq.issued <- false;
  s.Iq.pred_npc <- pred_npc;
  let dst = Decoded.d_dst d in
  if dst >= 0 then t.map.(dst) <- rob_idx

(* Decode-cache lookup for the loop currently being buffered; falls back
   to packing a descriptor from the side tables (callee instructions
   buffered from inside the loop live outside the cached window). *)
let dcache_lookup t wi =
  let tail_wi = Decoded.wi_of_pc t.dec t.reuse.Reuse_state.tail in
  let way = tail_wi land (dc_ways - 1) in
  if t.dc_tail.(way) = tail_wi && wi >= t.dc_head.(way) && wi <= tail_wi then begin
    t.dc_hits <- t.dc_hits + 1;
    t.dc_desc.(way).(wi - t.dc_head.(way))
  end
  else Decoded.descriptor t.dec wi

let dcache_install t ~head ~tail =
  let head_wi = Decoded.wi_of_pc t.dec head in
  let tail_wi = Decoded.wi_of_pc t.dec tail in
  if head_wi >= 0 && tail_wi >= head_wi && tail_wi < t.dec.Decoded.n then begin
    let way = tail_wi land (dc_ways - 1) in
    if t.dc_tail.(way) <> tail_wi || t.dc_head.(way) <> head_wi then begin
      t.dc_installs <- t.dc_installs + 1;
      t.dc_head.(way) <- head_wi;
      t.dc_tail.(way) <- tail_wi;
      t.dc_desc.(way) <-
        Array.init (tail_wi - head_wi + 1) (fun k ->
            Decoded.descriptor t.dec (head_wi + k))
    end
  end

(* Dispatch one decoded instruction; returns false on a structural stall. *)
let dispatch_one t (f : fetched) =
  let buffering = t.reuse.Reuse_state.state = Reuse_state.Buffering in
  let d =
    if buffering && f.f_buffered then dcache_lookup t f.f_wi
    else Decoded.descriptor t.dec f.f_wi
  in
  let is_mem = Decoded.d_is_mem d in
  if Rob.is_full t.rob then false
  else if Iq.is_full t.iq then begin
    (* Queue exhausted while buffering a loop (e.g. a too-large procedure
       inside it): the loop is non-bufferable (Section 2.2.2). *)
    if buffering && f.f_buffered then
      revoke_buffering t ~register_nblt:true ~cause:Rv_overflow;
    false
  end
  else if is_mem && Lsq.is_full t.lsq then false
  else begin
    let seq = next_seq t in
    let rob_idx = Rob.alloc t.rob in
    charge1 t Component.Rob;
    let e =
      fill_rob_entry t ~rob_idx ~seq ~pc:f.f_pc ~wi:f.f_wi ~pred_npc:f.f_pred_npc
        ~ras_ck:f.f_ras_ck ~from_reuse:false ~dst:(Decoded.d_dst d)
        ~is_store:(Decoded.d_is_store d) ~is_ctrl:(Decoded.d_is_ctrl d)
    in
    if is_mem then begin
      let li = Lsq.alloc t.lsq in
      let le = Lsq.entry t.lsq li in
      le.Lsq.seq <- seq;
      le.Lsq.rob_idx <- rob_idx;
      le.Lsq.is_store <- e.Rob.is_store;
      le.Lsq.is_fp <- Decoded.d_is_fp_mem d;
      le.Lsq.width <- Decoded.d_width d;
      e.Rob.lsq_idx <- li
    end;
    let s = Iq.dispatch t.iq in
    rename_into_slot t s ~seq ~rob_idx ~pc:f.f_pc ~wi:f.f_wi ~pred_npc:f.f_pred_npc ~d;
    Iq.enqueue t.iq s;
    charge1 t Component.Iq_payload;
    if buffering && f.f_buffered then begin
      s.Iq.reusable <- true;
      charge1 t Component.Lrl;
      t.reuse.Reuse_state.iter_count <- t.reuse.Reuse_state.iter_count + 1;
      if t.reuse.Reuse_state.first_buffered_seq = -1 then
        t.reuse.Reuse_state.first_buffered_seq <- seq;
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
          t.cur_reuse_tail <- t.reuse.Reuse_state.tail;
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

(* Rename a reused slot in place: only the register information, the ROB
   pointer and the sequence number change (Section 2.4) — the payload
   fields cached at capture (wi, fu, latency, classification) are the
   point of reuse and stay. *)
let rename_reuse_slot t (s : Iq.slot) ~seq ~rob_idx =
  charge1 t Component.Rename;
  read_src1 t s t.dec.Decoded.r1.(s.Iq.wi);
  read_src2 t s t.dec.Decoded.r2.(s.Iq.wi);
  s.Iq.seq <- seq;
  s.Iq.rob_idx <- rob_idx;
  Iq.mark_renamed t.iq s;
  let dst = t.dec.Decoded.dst.(s.Iq.wi) in
  if dst >= 0 then t.map.(dst) <- rob_idx

(* [allow_wrap] implements the paper's unidirectional scan: within one
   cycle the pointer only moves forward; it resets to the first buffered
   instruction after the last one is reused, so a wrap ends the cycle's
   dispatch group. *)
let reuse_dispatch_one t ~allow_wrap =
  let first = Iq.first_reusable t.iq in
  if first < 0 then false
  else begin
    let p = Iq.reuse_ptr t.iq in
    let needs_wrap = p >= Iq.count t.iq || not (Iq.slots t.iq).(p).Iq.reusable in
    if needs_wrap && not allow_wrap then false
    else begin
      let rptr = if needs_wrap then first else p in
      let s = (Iq.slots t.iq).(rptr) in
      if not s.Iq.issued then false (* previous instance still in flight *)
      else if Rob.is_full t.rob then false
      else if s.Iq.is_mem && Lsq.is_full t.lsq then false
      else begin
        let wi = s.Iq.wi in
        let pc = s.Iq.pc in
        let seq = next_seq t in
        let rob_idx = Rob.alloc t.rob in
        charge1 t Component.Rob;
        let e =
          fill_rob_entry t ~rob_idx ~seq ~pc ~wi ~pred_npc:s.Iq.pred_npc
            ~ras_ck:(Predictor.checkpoint t.pred) ~from_reuse:true
            ~dst:t.dec.Decoded.dst.(wi) ~is_store:s.Iq.is_store
            ~is_ctrl:t.dec.Decoded.is_ctrl.(wi)
        in
        if s.Iq.is_mem then begin
          let li = Lsq.alloc t.lsq in
          let le = Lsq.entry t.lsq li in
          le.Lsq.seq <- seq;
          le.Lsq.rob_idx <- rob_idx;
          le.Lsq.is_store <- e.Rob.is_store;
          le.Lsq.is_fp <- t.dec.Decoded.is_fp_mem.(wi);
          le.Lsq.width <- t.dec.Decoded.width.(wi);
          e.Rob.lsq_idx <- li
        end;
        (* Partial update: only the register information and the ROB pointer
           change (Section 2.4) — renaming happens as in normal dispatch. *)
        rename_reuse_slot t s ~seq ~rob_idx;
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
  let r = t.reuse in
  r.Reuse_state.n_detections <- r.Reuse_state.n_detections + 1;
  let ld = loop_record t ~head ~tail in
  ld.ld_detections <- ld.ld_detections + 1;
  charge1 t Component.Nblt;
  if Nblt.mem t.nblt tail then begin
    r.Reuse_state.n_nblt_filtered <- r.Reuse_state.n_nblt_filtered + 1;
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
    dcache_install t ~head ~tail;
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
    match r.Reuse_state.state with
    | Reuse_state.Normal ->
        if dec.Decoded.is_ctrl.(wi) then charge1 t Component.Reuse_logic;
        if Tracer.enabled t.tracer then begin
          (* The tracer wants the detector's instants, so take the
             constructor-matching reference path. *)
          match
            Detector.examine ~tracer:t.tracer ~now:t.now
              ~iq_size:t.cfg.Config.iq_entries ~pc:f.f_pc dec.Decoded.insns.(wi)
          with
          | Detector.Capturable { head; tail; span = _ } ->
              handle_capture t f ~head ~tail
          | Detector.Too_large _ | Detector.Not_a_loop -> ()
        end
        else begin
          (* Pure side-table form of [Detector.examine]: conditional
             branches and direct jumps always carry a static target. *)
          match dec.Decoded.kind.(wi) with
          | Insn.K_branch | K_jump ->
              let head = dec.Decoded.target.(wi) in
              let tail = f.f_pc in
              if head <= tail && ((tail - head) / 4) + 1 <= t.cfg.Config.iq_entries
              then handle_capture t f ~head ~tail
          | K_call | K_return | K_ijump | K_int | K_fp | K_load | K_store
          | K_nop | K_halt ->
              ()
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
          revoke_buffering t ~register_nblt:true ~cause:Rv_left_loop
        else begin
          (* An inner loop makes the current loop non-bufferable. *)
          match dec.Decoded.kind.(wi) with
          | Insn.K_branch | K_jump ->
              let head = dec.Decoded.target.(wi) in
              if
                head <= f.f_pc
                && ((f.f_pc - head) / 4) + 1 <= t.cfg.Config.iq_entries
                && f.f_pc <> r.Reuse_state.tail
              then revoke_buffering t ~register_nblt:true ~cause:Rv_inner_loop
          | K_call | K_return | K_ijump | K_int | K_fp | K_load | K_store
          | K_nop | K_halt ->
              ()
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
let decode_cache_hits t = t.dc_hits
let decode_cache_installs t = t.dc_installs

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

let account t = t.acct
let tracer t = t.tracer
let sampler t = t.sampler
let hierarchy t = t.hier
let reuse_state t = t.reuse
let nblt t = t.nblt
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

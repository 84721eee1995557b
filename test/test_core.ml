open Riq_isa
open Riq_asm
open Riq_interp
open Riq_ooo
open Riq_core

(* ---- Nblt ---- *)

let test_nblt_basic () =
  let n = Nblt.create 4 in
  Alcotest.(check bool) "empty" false (Nblt.mem n 0x100);
  Nblt.insert n 0x100;
  Alcotest.(check bool) "present" true (Nblt.mem n 0x100);
  Alcotest.(check int) "lookups counted" 2 (Nblt.lookups n)

let test_nblt_fifo () =
  let n = Nblt.create 2 in
  Nblt.insert n 1;
  Nblt.insert n 2;
  Nblt.insert n 3;
  Alcotest.(check bool) "oldest evicted" false (Nblt.mem n 1);
  Alcotest.(check bool) "second kept" true (Nblt.mem n 2);
  Alcotest.(check bool) "newest kept" true (Nblt.mem n 3)

let test_nblt_no_duplicates () =
  let n = Nblt.create 2 in
  Nblt.insert n 7;
  Nblt.insert n 7;
  Nblt.insert n 8;
  (* if 7 were inserted twice, 8 would have evicted one copy and 7 the other *)
  Alcotest.(check bool) "7 present" true (Nblt.mem n 7);
  Alcotest.(check bool) "8 present" true (Nblt.mem n 8);
  Alcotest.(check int) "insertions" 2 (Nblt.insertions n)

let test_nblt_zero_capacity () =
  let n = Nblt.create 0 in
  Nblt.insert n 5;
  Alcotest.(check bool) "never matches" false (Nblt.mem n 5)

(* qcheck vs a simple FIFO-set model *)
let prop_nblt_vs_model =
  QCheck.Test.make ~name:"NBLT matches FIFO-set model" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 60) (pair bool (int_bound 8)))
    (fun ops ->
      let n = Nblt.create 4 in
      let model = ref [] in
      List.for_all
        (fun (is_insert, v) ->
          if is_insert then begin
            if not (List.mem v !model) then begin
              model := !model @ [ v ];
              if List.length !model > 4 then model := List.tl !model
            end;
            Nblt.insert n v;
            true
          end
          else Nblt.mem n v = List.mem v !model)
        ops)

(* ---- Detector ---- *)

let test_detector () =
  let iq = 64 in
  (* backward branch spanning 8 instructions *)
  (match Detector.examine ~iq_size:iq ~pc:0x101C (Insn.Br (Bne, 1, 0, -8)) with
  | Detector.Capturable { head; tail; span } ->
      Alcotest.(check int) "head" 0x1000 head;
      Alcotest.(check int) "tail" 0x101C tail;
      Alcotest.(check int) "span" 8 span
  | _ -> Alcotest.fail "expected capturable");
  (* forward branch *)
  (match Detector.examine ~iq_size:iq ~pc:0x1000 (Insn.Br (Bne, 1, 0, 4)) with
  | Detector.Not_a_loop -> ()
  | _ -> Alcotest.fail "forward branch is not a loop");
  (* too large *)
  (match Detector.examine ~iq_size:iq ~pc:0x1000 (Insn.Br (Bne, 1, 0, -1000)) with
  | Detector.Too_large span -> Alcotest.(check int) "span" 1000 span
  | _ -> Alcotest.fail "expected too large");
  (* direct backward jump *)
  (match Detector.examine ~iq_size:iq ~pc:0x1010 (Insn.J (0x1000 / 4)) with
  | Detector.Capturable { span; _ } -> Alcotest.(check int) "jump span" 5 span
  | _ -> Alcotest.fail "backward jump is a loop");
  (* indirect jump is never a loop end *)
  match Detector.examine ~iq_size:iq ~pc:0x1010 (Insn.Jr (Reg.r 5)) with
  | Detector.Not_a_loop -> ()
  | _ -> Alcotest.fail "indirect jump must not detect"

let test_detector_boundary () =
  (* span exactly equal to the queue size is capturable (paper: "no larger
     than the issue queue size") *)
  match Detector.examine ~iq_size:8 ~pc:0x101C (Insn.Br (Bne, 1, 0, -8)) with
  | Detector.Capturable _ -> ()
  | _ -> Alcotest.fail "boundary span must be capturable"

(* ---- Reuse_state ---- *)

let test_reuse_state_transitions () =
  let r = Reuse_state.create () in
  Alcotest.(check bool) "starts normal" true (r.Reuse_state.state = Reuse_state.Normal);
  Reuse_state.start_buffering r ~head:0x100 ~tail:0x140;
  Alcotest.(check bool) "buffering" true (r.Reuse_state.state = Reuse_state.Buffering);
  Alcotest.(check bool) "in loop" true (Reuse_state.in_loop r ~pc:0x120);
  Alcotest.(check bool) "outside" false (Reuse_state.in_loop r ~pc:0x144);
  Reuse_state.promote r;
  Alcotest.(check bool) "reusing" true (r.Reuse_state.state = Reuse_state.Reusing);
  Reuse_state.exit_reuse r;
  Alcotest.(check bool) "back to normal" true (r.Reuse_state.state = Reuse_state.Normal);
  Reuse_state.start_buffering r ~head:0 ~tail:4;
  Reuse_state.revoke r;
  Alcotest.(check int) "stats" 2 r.Reuse_state.n_buffer_attempts;
  Alcotest.(check int) "revokes" 1 r.Reuse_state.n_revokes;
  Alcotest.(check int) "promotions" 1 r.Reuse_state.n_promotions

(* ---- Processor end-to-end ---- *)

let run_both ?(cfg = Config.reuse) src =
  let p = Parse.program_exn src in
  let m = Machine.create p in
  (match Machine.run ~limit:10_000_000 m with
  | Machine.Halted -> ()
  | _ -> Alcotest.fail "reference did not halt");
  let proc = Processor.create cfg p in
  (match Processor.run ~cycle_limit:10_000_000 proc with
  | Processor.Halted -> ()
  | Processor.Cycle_limit -> Alcotest.fail "processor hit cycle limit");
  let a = Machine.arch_state m and b = Processor.arch_state proc in
  if not (Machine.equal_arch a b) then
    Alcotest.failf "arch mismatch:@.%s"
      (Format.asprintf "%a" (fun ppf () -> Machine.pp_arch_diff ppf a b) ());
  (m, proc)

let loop_src = {|
    li r2, 0
    li r3, 0
loop:
    add r2, r2, r3
    addi r3, r3, 1
    slti r4, r3, 1000
    bne r4, r0, loop
    halt
|}

let test_processor_gating () =
  let _, proc = run_both loop_src in
  let st = Processor.stats proc in
  Alcotest.(check bool) "gating engaged" true (st.Processor.gated_fraction > 0.5);
  Alcotest.(check bool) "reuse dispatches" true (st.Processor.reuse_dispatches > 500);
  Alcotest.(check int) "one buffering attempt" 1 st.Processor.buffer_attempts;
  Alcotest.(check int) "one promotion" 1 st.Processor.promotions;
  Alcotest.(check int) "exit at loop end" 1 st.Processor.reuse_exits

let test_processor_baseline_no_gating () =
  let _, proc = run_both ~cfg:Config.baseline loop_src in
  let st = Processor.stats proc in
  Alcotest.(check int) "no gating" 0 st.Processor.gated_cycles;
  Alcotest.(check int) "no attempts" 0 st.Processor.buffer_attempts

let test_processor_store_load_forwarding () =
  (* store then immediately load the same address inside a reused loop *)
  ignore
    (run_both {|
.space buf 64
    li r2, 0
    la r3, buf
loop:
    sll r4, r2, 2
    add r4, r4, r3
    sw  r2, 0(r4)
    lw  r5, 0(r4)
    add r6, r6, r5
    addi r2, r2, 1
    slti r7, r2, 16
    bne r7, r0, loop
    la  r8, buf
    sw  r6, 60(r8)
    halt
|})

let test_processor_mispredict_recovery () =
  (* data-dependent branch inside the loop alternates direction: the
     static prediction in reuse mode is wrong half the time and the
     machine must still be architecturally exact *)
  let _, proc = run_both {|
    li r2, 0
    li r3, 0
loop:
    andi r4, r2, 1
    beq  r4, r0, even
    addi r3, r3, 10
    j    next
even:
    addi r3, r3, 1
next:
    addi r2, r2, 1
    slti r5, r2, 100
    bne  r5, r0, loop
    halt
|} in
  let st = Processor.stats proc in
  Alcotest.(check bool) "mispredicts happened" true (st.Processor.mispredicts > 5)

let test_processor_procedure_in_loop () =
  ignore
    (run_both {|
    li r2, 0
loop:
    jal bump
    addi r2, r2, 1
    slti r3, r2, 50
    bne r3, r0, loop
    halt
bump:
    addi r4, r4, 3
    jr r31
|})

let test_processor_nblt_blocks_rebuffering () =
  (* a loop that exits after 2 iterations every entry: buffering always
     revoked, so the NBLT should suppress later attempts *)
  let _, proc = run_both {|
    li r2, 0
outer:
    li r3, 0
inner:
    addi r3, r3, 1
    slti r4, r3, 2
    bne r4, r0, inner
    addi r2, r2, 1
    slti r5, r2, 40
    bne r5, r0, outer
    halt
|} in
  let st = Processor.stats proc in
  Alcotest.(check bool) "attempts bounded by NBLT" true (st.Processor.buffer_attempts < 10)

let test_processor_strategy_one_iteration () =
  let cfg = { Config.reuse with Config.buffer_multiple_iterations = false } in
  let _, proc = run_both ~cfg loop_src in
  let r = Processor.reuse_state proc in
  Alcotest.(check int) "single iteration buffered" 1 r.Reuse_state.iters_buffered

let test_processor_multi_iteration () =
  let _, proc = run_both loop_src in
  let r = Processor.reuse_state proc in
  (* 4-instruction body in a 64-entry queue: many iterations unrolled *)
  Alcotest.(check bool) "unrolled several iterations" true (r.Reuse_state.iters_buffered > 4)

let test_processor_div_by_zero () =
  let m, _ = run_both {|
    li r2, 5
    li r3, 0
    div r4, r2, r3
    halt
|} in
  Alcotest.(check int) "div by zero yields 0" 0 (Machine.reg m (Reg.r 4))

let test_processor_fp_kernel () =
  ignore
    (run_both {|
.float v 1.0 2.0 3.0 4.0
    la r2, v
    li r3, 0
loop:
    sll r4, r3, 2
    add r4, r4, r2
    l.s f1, 0(r4)
    fmul f2, f1, f1
    fadd f3, f3, f2
    addi r3, r3, 1
    slti r5, r3, 4
    bne r5, r0, loop
    cvtws r6, f3
    halt
|})

let test_processor_stats_consistency () =
  let m, proc = run_both loop_src in
  let st = Processor.stats proc in
  Alcotest.(check int) "committed = reference count" (Machine.insn_count m)
    st.Processor.committed;
  Alcotest.(check bool) "gated <= cycles" true (st.Processor.gated_cycles <= st.Processor.cycles);
  Alcotest.(check bool) "power positive" true (st.Processor.avg_power > 0.)

let test_processor_reuse_iq_sizes () =
  List.iter
    (fun size -> ignore (run_both ~cfg:(Config.with_iq_size Config.reuse size) loop_src))
    [ 8; 16; 32; 256 ]

let suites =
  [
    ( "core",
      [
        Alcotest.test_case "nblt basic" `Quick test_nblt_basic;
        Alcotest.test_case "nblt fifo" `Quick test_nblt_fifo;
        Alcotest.test_case "nblt duplicates" `Quick test_nblt_no_duplicates;
        Alcotest.test_case "nblt zero capacity" `Quick test_nblt_zero_capacity;
        Alcotest.test_case "detector" `Quick test_detector;
        Alcotest.test_case "detector boundary" `Quick test_detector_boundary;
        Alcotest.test_case "reuse state machine" `Quick test_reuse_state_transitions;
        Alcotest.test_case "gating on a tight loop" `Quick test_processor_gating;
        Alcotest.test_case "baseline never gates" `Quick test_processor_baseline_no_gating;
        Alcotest.test_case "store-load forwarding in reuse" `Quick
          test_processor_store_load_forwarding;
        Alcotest.test_case "mispredict recovery" `Quick test_processor_mispredict_recovery;
        Alcotest.test_case "procedure inside loop" `Quick test_processor_procedure_in_loop;
        Alcotest.test_case "nblt blocks re-buffering" `Quick
          test_processor_nblt_blocks_rebuffering;
        Alcotest.test_case "strategy 1 buffers once" `Quick
          test_processor_strategy_one_iteration;
        Alcotest.test_case "strategy 2 unrolls" `Quick test_processor_multi_iteration;
        Alcotest.test_case "div by zero" `Quick test_processor_div_by_zero;
        Alcotest.test_case "fp kernel" `Quick test_processor_fp_kernel;
        Alcotest.test_case "stats consistency" `Quick test_processor_stats_consistency;
        Alcotest.test_case "reuse across queue sizes" `Quick test_processor_reuse_iq_sizes;
        QCheck_alcotest.to_alcotest prop_nblt_vs_model;
      ] );
  ]

let test_processor_subword_in_loop () =
  (* byte stores followed by overlapping word loads inside a reused loop:
     exercises the width-aware disambiguation under reuse dispatch *)
  ignore
    (run_both {|
.space buf 64
    li r2, 0
    la r3, buf
loop:
    add r4, r3, r2
    sb  r2, 0(r4)
    andi r5, r2, 3
    bne  r5, r0, skip
    lw  r6, 0(r4)
    add r7, r7, r6
skip:
    lbu r8, 0(r4)
    add r9, r9, r8
    addi r2, r2, 1
    slti r10, r2, 48
    bne r10, r0, loop
    halt
|})

(* ---- Loopcache (related-work baseline) ---- *)

let test_loopcache_controller () =
  let lc = Loopcache.create 16 in
  Alcotest.(check bool) "idle" true (Loopcache.state lc = Loopcache.Idle);
  let branch = Insn.Br (Bne, Reg.r 1, Reg.zero, -5) in
  (* taken short backward branch at 0x101C, loop head 0x100C *)
  Loopcache.on_fetch lc ~pc:0x101C ~insn:branch ~pred_npc:0x100C;
  Alcotest.(check bool) "fill" true (Loopcache.state lc = Loopcache.Fill);
  (* second iteration streams through the cache *)
  List.iter
    (fun pc -> Loopcache.on_fetch lc ~pc ~insn:Insn.Nop ~pred_npc:(pc + 4))
    [ 0x100C; 0x1010; 0x1014; 0x1018 ];
  Loopcache.on_fetch lc ~pc:0x101C ~insn:branch ~pred_npc:0x100C;
  Alcotest.(check bool) "active" true (Loopcache.state lc = Loopcache.Active);
  Alcotest.(check bool) "serving head" true (Loopcache.serving lc ~pc:0x100C);
  Alcotest.(check bool) "not serving outside" false (Loopcache.serving lc ~pc:0x1020);
  (* loop exit: branch predicted not taken *)
  List.iter
    (fun pc -> Loopcache.on_fetch lc ~pc ~insn:Insn.Nop ~pred_npc:(pc + 4))
    [ 0x100C; 0x1010; 0x1014; 0x1018 ];
  Loopcache.on_fetch lc ~pc:0x101C ~insn:branch ~pred_npc:0x1020;
  Alcotest.(check bool) "exit to idle" true (Loopcache.state lc = Loopcache.Idle);
  Alcotest.(check int) "one activation" 1 (Loopcache.activations lc);
  Alcotest.(check bool) "supplied instructions" true (Loopcache.supplies lc >= 5)

let test_loopcache_too_large () =
  let lc = Loopcache.create 8 in
  (* span 12 > capacity 8: not a short backward branch *)
  Loopcache.on_fetch lc ~pc:0x102C ~insn:(Insn.Br (Bne, Reg.r 1, Reg.zero, -12))
    ~pred_npc:0x1000;
  Alcotest.(check bool) "stays idle" true (Loopcache.state lc = Loopcache.Idle)

let test_loopcache_fill_abort () =
  let lc = Loopcache.create 16 in
  let branch = Insn.Br (Bne, Reg.r 1, Reg.zero, -3) in
  Loopcache.on_fetch lc ~pc:0x1008 ~insn:branch ~pred_npc:0x1000;
  Alcotest.(check bool) "filling" true (Loopcache.state lc = Loopcache.Fill);
  (* control leaves the loop during fill *)
  Loopcache.on_fetch lc ~pc:0x2000 ~insn:Insn.Nop ~pred_npc:0x2004;
  Alcotest.(check bool) "aborted" true (Loopcache.state lc = Loopcache.Idle)

let test_processor_loopcache_saves_icache () =
  let p = Parse.program_exn loop_src in
  let run cfg =
    let proc = Processor.create cfg p in
    (match Processor.run ~cycle_limit:10_000_000 proc with
    | Processor.Halted -> ()
    | Processor.Cycle_limit -> Alcotest.fail "cycle limit");
    proc
  in
  let base = run Config.baseline in
  let lc = run (Config.loop_cache 64) in
  let accesses proc = (Processor.stats proc).Processor.icache_accesses in
  Alcotest.(check bool) "icache accesses drop" true (accesses lc < accesses base / 2);
  (match Processor.loopcache lc with
  | Some c -> Alcotest.(check bool) "supplies counted" true (Loopcache.supplies c > 1000)
  | None -> Alcotest.fail "loop cache missing");
  (* and it must stay architecturally exact *)
  ignore (run_both ~cfg:(Config.loop_cache 64) loop_src)

let test_processor_filter_cache () =
  let _, proc = run_both ~cfg:(Config.filter_cache ()) loop_src in
  let h = Processor.hierarchy proc in
  match Riq_mem.Hierarchy.l0i h with
  | Some l0 ->
      Alcotest.(check bool) "l0 hot" true
        (Riq_mem.Cache.hits l0 > (9 * Riq_mem.Cache.accesses l0) / 10)
  | None -> Alcotest.fail "filter cache missing"

let test_config_exclusive_mechanisms () =
  Alcotest.(check bool) "reuse + loop cache rejected" true
    (try
       Config.validate { Config.reuse with Config.loop_cache_entries = 64 };
       false
     with Invalid_argument _ -> true)

let extra_suites =
  [
    ( "loopcache",
      [
        Alcotest.test_case "controller fsm" `Quick test_loopcache_controller;
        Alcotest.test_case "rejects large loops" `Quick test_loopcache_too_large;
        Alcotest.test_case "fill abort" `Quick test_loopcache_fill_abort;
        Alcotest.test_case "saves icache accesses" `Quick test_processor_loopcache_saves_icache;
        Alcotest.test_case "filter cache" `Quick test_processor_filter_cache;
        Alcotest.test_case "mechanisms exclusive" `Quick test_config_exclusive_mechanisms;
        Alcotest.test_case "sub-word ops in a reused loop" `Quick
          test_processor_subword_in_loop;
      ] );
  ]

let test_gating_stops_icache () =
  (* During Code Reuse the front end makes no instruction-cache accesses:
     the access count must grow far slower than one per cycle. *)
  let p = Parse.program_exn loop_src in
  let proc = Processor.create Config.reuse p in
  (* run until reuse engages *)
  let guard = ref 0 in
  while
    (Processor.reuse_state proc).Reuse_state.state <> Reuse_state.Reusing
    && (not (Processor.halted proc))
    && !guard < 100_000
  do
    Processor.step_cycle proc;
    incr guard
  done;
  Alcotest.(check bool) "reuse engaged" true
    ((Processor.reuse_state proc).Reuse_state.state = Reuse_state.Reusing);
  let h = Processor.hierarchy proc in
  let before = Riq_mem.Cache.accesses (Riq_mem.Hierarchy.l1i h) in
  let cycles = 200 in
  let gated_before = Processor.gated_cycles proc in
  for _ = 1 to cycles do
    if not (Processor.halted proc) then Processor.step_cycle proc
  done;
  let after = Riq_mem.Cache.accesses (Riq_mem.Hierarchy.l1i h) in
  let gated_delta = Processor.gated_cycles proc - gated_before in
  Alcotest.(check bool) "mostly gated window" true (gated_delta > cycles / 2);
  (* icache accesses only during the non-gated fraction *)
  Alcotest.(check bool) "icache silent while gated" true
    (after - before <= cycles - gated_delta + 2)

let test_reuse_with_divides () =
  (* long-latency non-pipelined operations inside a reused loop *)
  ignore
    (run_both {|
    li r2, 1
    li r3, 0
loop:
    addi r4, r3, 100
    div  r5, r4, r2
    add  r6, r6, r5
    addi r3, r3, 1
    slti r7, r3, 60
    bne  r7, r0, loop
    halt
|})

let test_iq_full_revoke_path () =
  (* a statically-capturable loop whose dynamic iteration (call + large
     callee) exceeds a small queue: buffering must revoke via the
     queue-full rule and register the loop in the NBLT *)
  let body = String.concat "\n" (List.init 30 (fun i ->
      Printf.sprintf "    addi r%d, r%d, 1" (2 + (i mod 8)) (2 + (i mod 8)))) in
  let src = Printf.sprintf {|
    li r20, 0
loop:
    jal big
    addi r20, r20, 1
    slti r21, r20, 30
    bne r21, r0, loop
    halt
big:
%s
    jr r31
|} body in
  let _, proc = run_both ~cfg:(Config.with_iq_size Config.reuse 16) src in
  let st = Processor.stats proc in
  Alcotest.(check bool) "revoked" true (st.Processor.revokes >= 1);
  Alcotest.(check int) "never promoted" 0 st.Processor.promotions;
  Alcotest.(check bool) "nblt stopped retries" true (st.Processor.buffer_attempts <= 3)

let gating_suites =
  [
    ( "gating-internals",
      [
        Alcotest.test_case "icache silent while gated" `Quick test_gating_stops_icache;
        Alcotest.test_case "divides inside reused loop" `Quick test_reuse_with_divides;
        Alcotest.test_case "queue-full revoke path" `Quick test_iq_full_revoke_path;
      ] );
  ]

let test_indirect_jump_resolution () =
  (* computed jumps have no static target: fetch must stall and resume at
     the resolved address, in both cores *)
  ignore
    (run_both {|
    la  r2, hop
    li  r3, 1
    jalr r4, r2
    halt
hop:
    addi r3, r3, 41
    jr  r4
|});
  ignore
    (run_both {|
    la  r5, finish
    jr  r5
    addi r6, r6, 999   # must never execute
finish:
    halt
|})

let test_stable_branch_stays_in_reuse () =
  (* an if inside the loop that always takes the same path: static
     prediction holds, so Code Reuse should persist across iterations *)
  let _, proc = run_both {|
    li r2, 0
loop:
    slti r3, r2, 2000
    beq  r3, r0, rare      # never taken inside the loop range below
    addi r4, r4, 1
rare:
    addi r2, r2, 1
    slti r5, r2, 800
    bne  r5, r0, loop
    halt
|} in
  let st = Processor.stats proc in
  Alcotest.(check bool) "gating persists across biased if" true
    (st.Processor.gated_fraction > 0.6);
  Alcotest.(check bool) "few reuse exits" true (st.Processor.reuse_exits <= 3)

let test_nblt_fifo_eviction () =
  let t = Nblt.create 2 in
  Nblt.insert t 0x100;
  Nblt.insert t 0x200;
  Alcotest.(check bool) "first present" true (Nblt.mem t 0x100);
  Alcotest.(check bool) "second present" true (Nblt.mem t 0x200);
  (* Third insertion evicts the oldest entry, FIFO order. *)
  Nblt.insert t 0x300;
  Alcotest.(check bool) "oldest evicted" false (Nblt.mem t 0x100);
  Alcotest.(check bool) "second survives" true (Nblt.mem t 0x200);
  Alcotest.(check bool) "newest present" true (Nblt.mem t 0x300)

let test_nblt_saturation () =
  let t = Nblt.create 4 in
  (* Keep inserting far past capacity: only the last [capacity] distinct
     addresses survive, and the cursor never walks out of the table. *)
  for i = 1 to 100 do
    Nblt.insert t (4 * i)
  done;
  Alcotest.(check int) "capacity unchanged" 4 (Nblt.capacity t);
  Alcotest.(check int) "every distinct insert counted" 100 (Nblt.insertions t);
  for i = 97 to 100 do
    Alcotest.(check bool) (Printf.sprintf "entry %d present" i) true (Nblt.mem t (4 * i))
  done;
  Alcotest.(check bool) "older entries evicted" false (Nblt.mem t (4 * 96))

let test_nblt_duplicate_insert () =
  let t = Nblt.create 2 in
  Nblt.insert t 0x40;
  Nblt.insert t 0x40;
  Nblt.insert t 0x40;
  Alcotest.(check int) "re-registering is a no-op" 1 (Nblt.insertions t);
  (* The duplicate must not have consumed a FIFO slot. *)
  Nblt.insert t 0x80;
  Alcotest.(check bool) "first still present" true (Nblt.mem t 0x40);
  Alcotest.(check bool) "second present" true (Nblt.mem t 0x80)

let test_nblt_zero_entries () =
  (* The NBLT-ablation configuration: a zero-entry table never matches and
     never registers. *)
  let t = Nblt.create 0 in
  Nblt.insert t 0x100;
  Alcotest.(check bool) "never matches" false (Nblt.mem t 0x100);
  Alcotest.(check int) "never registers" 0 (Nblt.insertions t);
  Alcotest.check_raises "negative size rejected" (Invalid_argument "Nblt.create")
    (fun () -> ignore (Nblt.create (-1)))

(* Figure 2's state machine rejects transitions with no edge: the pipeline
   must never, e.g., revoke without buffering. Each transition function
   asserts its source state. *)
let test_reuse_state_legal_cycle () =
  let t = Reuse_state.create () in
  Reuse_state.start_buffering t ~head:0x1000 ~tail:0x1040;
  Alcotest.(check bool) "buffering" true (t.Reuse_state.state = Reuse_state.Buffering);
  Alcotest.(check bool) "pc in loop" true (Reuse_state.in_loop t ~pc:0x1020);
  Alcotest.(check bool) "pc outside loop" false (Reuse_state.in_loop t ~pc:0x2000);
  Reuse_state.revoke t;
  Alcotest.(check bool) "normal after revoke" true (t.Reuse_state.state = Reuse_state.Normal);
  Reuse_state.start_buffering t ~head:0x1000 ~tail:0x1040;
  Reuse_state.promote t;
  Alcotest.(check bool) "reusing" true (t.Reuse_state.state = Reuse_state.Reusing);
  Reuse_state.exit_reuse t;
  Alcotest.(check bool) "normal after exit" true (t.Reuse_state.state = Reuse_state.Normal);
  Alcotest.(check int) "attempts" 2 t.Reuse_state.n_buffer_attempts;
  Alcotest.(check int) "revokes" 1 t.Reuse_state.n_revokes;
  Alcotest.(check int) "promotions" 1 t.Reuse_state.n_promotions;
  Alcotest.(check int) "exits" 1 t.Reuse_state.n_reuse_exits

let test_reuse_state_illegal_transitions () =
  let asserts f =
    match f () with
    | () -> false
    | exception Assert_failure _ -> true
  in
  let fresh () = Reuse_state.create () in
  let buffering () =
    let t = fresh () in
    Reuse_state.start_buffering t ~head:0 ~tail:16;
    t
  in
  let reusing () =
    let t = buffering () in
    Reuse_state.promote t;
    t
  in
  Alcotest.(check bool) "revoke from Normal" true
    (asserts (fun () -> Reuse_state.revoke (fresh ())));
  Alcotest.(check bool) "promote from Normal" true
    (asserts (fun () -> Reuse_state.promote (fresh ())));
  Alcotest.(check bool) "exit from Normal" true
    (asserts (fun () -> Reuse_state.exit_reuse (fresh ())));
  Alcotest.(check bool) "start while Buffering" true
    (asserts (fun () -> Reuse_state.start_buffering (buffering ()) ~head:0 ~tail:16));
  Alcotest.(check bool) "exit from Buffering" true
    (asserts (fun () -> Reuse_state.exit_reuse (buffering ())));
  Alcotest.(check bool) "start while Reusing" true
    (asserts (fun () -> Reuse_state.start_buffering (reusing ()) ~head:0 ~tail:16));
  Alcotest.(check bool) "revoke from Reusing" true
    (asserts (fun () -> Reuse_state.revoke (reusing ())))

(* ---- packed-core edge cases ---- *)

(* A dependency chain of long-latency loads: every iteration's address
   depends on the previous load's (zero) value, each access lands on a
   fresh L1 line, and every other line misses the L2 out to DRAM. With
   per-load latencies around 8..170 cycles and nothing else in flight,
   writeback events constantly land on wheel slots numerically below the
   current one (cycle land 255 wraps). *)
let chase_src =
  let zeros = String.concat " " (List.init 1024 (fun _ -> "0")) in
  Printf.sprintf {|
    la r2, buf
    li r6, 120
chase:
    lw r5, 0(r2)
    add r2, r2, r5
    addi r2, r2, 32
    addi r6, r6, -1
    bgtz r6, chase
    halt
.word buf %s
|} zeros

let test_event_wheel_wraparound () =
  let _, proc = run_both chase_src in
  let st = Processor.stats proc in
  (* The chain must actually be long-latency and serialized, or the wheel
     never sees distant events: >100 L1 misses and a cycle count that can
     only come from stalling on them. *)
  Alcotest.(check bool)
    (Printf.sprintf "every iteration misses L1 (%d)" st.Processor.dcache_misses)
    true
    (st.Processor.dcache_misses > 100);
  Alcotest.(check bool)
    (Printf.sprintf "latency-bound (%d cycles)" st.Processor.cycles)
    true
    (st.Processor.cycles > 120 * 30);
  (* ...which wraps the 256-slot wheel dozens of times. *)
  Alcotest.(check bool) "wheel wrapped many times" true
    (st.Processor.cycles > 256 * 10);
  (* The wheel must drain exactly like the reference pipeline's per-cycle
     event table, down to every stat and the power bits. *)
  let slow = Slowpath.create Config.reuse (Parse.program_exn chase_src) in
  (match Slowpath.run ~cycle_limit:10_000_000 slow with
  | Slowpath.Halted -> ()
  | Slowpath.Cycle_limit -> Alcotest.fail "reference pipeline hit cycle limit");
  Alcotest.(check bool) "stats bit-identical to the reference pipeline" true
    (Slowpath.stats slow = st)

(* An inner-loop revoke and a new capture in one decode group. While the
   outer loop is buffering, the first inner tail is flagged as buffered
   and then revokes (inner loop); the next inner tail in the same group
   starts a new buffer. The revoked tail still in the decode latch must
   not enter that buffer, or reuse executes it twice. *)
let test_revoked_tail_not_rebuffered () =
  let _, proc =
    run_both ~cfg:(Config.with_iq_size Config.reuse 64) {|
    li r16, 3
.Lh1:
    sll r9, r8, 7
    li r17, 29
.Lh3:
    bgez r11, .Lg5
.Lg5:
    addi r17, r17, -1
    bgtz r17, .Lh3
    sltu r10, r10, r8
    and r9, r8, r13
    addi r16, r16, -1
    bgtz r16, .Lh1
    halt
|}
  in
  let st = Processor.stats proc in
  Alcotest.(check bool) "inner-loop revoke taken" true (st.Processor.revokes > 0);
  Alcotest.(check bool) "inner loop still promotes" true (st.Processor.promotions > 0)

let test_decode_cache_way_conflict () =
  (* 17 distinct loop tails over a 16-way decode cache: tails sit 5 words
     apart, so (gcd(5,16)=1) the 17th tail is the first to revisit a way
     and evicts its resident. Re-entering the evicted loop on the next
     outer iteration must reinstall — and stay architecturally exact. *)
  let inner i =
    Printf.sprintf
      "    li r3, 20\nl%d:\n    addi r4, r4, %d\n    xori r5, r4, %d\n    addi r3, r3, -1\n    bgtz r3, l%d\n"
      i (i + 1) i i
  in
  let src =
    "    li r2, 3\nouter:\n"
    ^ String.concat "" (List.init 17 inner)
    ^ "    addi r2, r2, -1\n    bgtz r2, outer\n    halt\n"
  in
  let _, proc = run_both src in
  let st = Processor.stats proc in
  Alcotest.(check bool)
    (Printf.sprintf "all 17 loops promote (%d)" st.Processor.promotions)
    true
    (st.Processor.promotions >= 17);
  Alcotest.(check bool) "decode cache supplies descriptors" true
    (Processor.decode_cache_hits proc > 0);
  Alcotest.(check bool)
    (Printf.sprintf "way conflict forces reinstalls (%d)"
       (Processor.decode_cache_installs proc))
    true
    (Processor.decode_cache_installs proc > 17)

let misc_suites =
  [
    ( "packed-core-edges",
      [
        Alcotest.test_case "event-wheel wraparound under long-latency chains"
          `Quick test_event_wheel_wraparound;
        Alcotest.test_case "decode-cache eviction across 17 loop tails" `Quick
          test_decode_cache_way_conflict;
      ] );
    ( "pipeline-misc",
      [
        Alcotest.test_case "indirect jump resolution" `Quick test_indirect_jump_resolution;
        Alcotest.test_case "biased if keeps reuse" `Quick test_stable_branch_stays_in_reuse;
        Alcotest.test_case "revoked tail not re-buffered" `Quick
          test_revoked_tail_not_rebuffered;
      ] );
    ( "reuse-structures",
      [
        Alcotest.test_case "nblt fifo eviction" `Quick test_nblt_fifo_eviction;
        Alcotest.test_case "nblt saturation" `Quick test_nblt_saturation;
        Alcotest.test_case "nblt duplicate insert" `Quick test_nblt_duplicate_insert;
        Alcotest.test_case "nblt zero entries" `Quick test_nblt_zero_entries;
        Alcotest.test_case "reuse-state legal cycle" `Quick test_reuse_state_legal_cycle;
        Alcotest.test_case "reuse-state illegal transitions" `Quick
          test_reuse_state_illegal_transitions;
      ] );
  ]

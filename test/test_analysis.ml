(* Tests for the static analysis pipeline (lib/analysis): CFG
   construction, dominators, natural loops (including the rejection of
   irreducible control flow), trip counts — and the differential
   property that anchors the whole pass: on every built-in kernel, the
   static bufferability verdicts must agree with what the dynamic core
   actually decides, and the predicted reuse coverage must track the
   measured one. *)

open Riq_asm
open Riq_ooo
open Riq_core
open Riq_workloads
open Riq_analysis

let parse = Parse.program_exn

let cfg_of src = Cfg.build (parse src)

(* ---- CFG ---- *)

(* entry, a loop, a skip branch, a tail: leaders and edges. *)
let diamond_src =
  {|
start:
    addi r2, r0, 10
    beq  r2, r0, else_
    addi r3, r0, 1
    j    join
else_:
    addi r3, r0, 2
join:
    add  r4, r3, r0
    halt
|}

let test_cfg_blocks () =
  let cfg = cfg_of diamond_src in
  Alcotest.(check int) "four blocks" 4 (Cfg.n_blocks cfg);
  let b0 = Cfg.block cfg 0 in
  Alcotest.(check int) "entry has two successors" 2 (List.length b0.Cfg.b_succs);
  let join = Option.get (Cfg.block_at cfg (Option.get (Program.address_of (cfg.Cfg.program) "join"))) in
  Alcotest.(check int) "join has two predecessors" 2 (List.length join.Cfg.b_preds);
  Alcotest.(check (list int))
    "last block falls through nowhere" [] join.Cfg.b_succs

let test_cfg_call_edges () =
  let cfg =
    cfg_of
      {|
start:
    jal  f
    halt
f:
    addi r2, r2, 1
    jr   r31
|}
  in
  let b0 = Cfg.block cfg 0 in
  Alcotest.(check bool) "entry is a call block" true b0.Cfg.b_call;
  Alcotest.(check int) "call has fallthrough and callee edges" 2 (List.length b0.Cfg.b_succs);
  let ret = Cfg.block cfg (Cfg.n_blocks cfg - 1) in
  Alcotest.(check bool) "return block is indirect" true ret.Cfg.b_indirect;
  Alcotest.(check (list int)) "return has no static successors" [] ret.Cfg.b_succs

let test_cfg_rpo_topological () =
  let cfg = cfg_of diamond_src in
  let rpo = Cfg.reverse_postorder cfg in
  let pos = Array.make (Cfg.n_blocks cfg) (-1) in
  Array.iteri (fun i b -> pos.(b) <- i) rpo;
  (* In an acyclic graph every edge goes forward in RPO. *)
  for b = 0 to Cfg.n_blocks cfg - 1 do
    List.iter
      (fun s -> Alcotest.(check bool) "edge goes forward" true (pos.(s) > pos.(b)))
      (Cfg.block cfg b).Cfg.b_succs
  done

(* ---- Dominators ---- *)

let test_dominators_diamond () =
  let cfg = cfg_of diamond_src in
  let dom = Dominators.compute cfg in
  (* Block ids are in address order: 0 entry, 1 then-side, 2 else-side,
     3 join. *)
  Alcotest.(check bool) "entry dominates join" true (Dominators.dominates dom 0 3);
  Alcotest.(check bool) "then does not dominate join" false (Dominators.dominates dom 1 3);
  Alcotest.(check (option int)) "join's idom is the entry" (Some 0) (Dominators.idom dom 3);
  Alcotest.(check bool) "reflexive" true (Dominators.dominates dom 2 2)

let nested_src =
  {|
start:
    addi r16, r0, 0
outer:
    addi r17, r0, 0
inner:
    addi r17, r17, 1
    slti r2, r17, 5
    bne  r2, r0, inner
    addi r16, r16, 1
    slti r2, r16, 3
    bne  r2, r0, outer
    halt
|}

let test_loop_nest () =
  let cfg = cfg_of nested_src in
  let ls = Loops.detect cfg in
  Alcotest.(check int) "two loops" 2 (Array.length ls.Loops.loops);
  Alcotest.(check (list (pair int int))) "no irreducible edges" [] ls.Loops.irreducible;
  let outer = ls.Loops.loops.(0) and inner = ls.Loops.loops.(1) in
  Alcotest.(check int) "outer depth" 1 outer.Loops.l_depth;
  Alcotest.(check int) "inner depth" 2 inner.Loops.l_depth;
  Alcotest.(check (option int)) "inner's parent is outer" (Some 0) inner.Loops.l_parent;
  Alcotest.(check (list int)) "outer's child is inner" [ 1 ] outer.Loops.l_children;
  Alcotest.(check bool) "inner is innermost" true (Loops.innermost ls inner);
  Alcotest.(check bool) "outer is not" false (Loops.innermost ls outer);
  Alcotest.(check bool) "inner body inside outer body" true
    (List.for_all (fun b -> List.mem b outer.Loops.l_blocks) inner.Loops.l_blocks)

(* A retreating edge whose target does not dominate its source (the
   classic two-entry loop) must be reported irreducible, never turned
   into a natural loop. *)
let irreducible_src =
  {|
start:
    addi r2, r0, 1
    beq  r2, r0, b2
b1:
    addi r3, r3, 1
    j    b2
b2:
    addi r3, r3, 2
    slti r4, r3, 10
    bne  r4, r0, b1
    halt
|}

let test_irreducible_rejected () =
  let cfg = cfg_of irreducible_src in
  let ls = Loops.detect cfg in
  Alcotest.(check int) "no natural loops" 0 (Array.length ls.Loops.loops);
  Alcotest.(check bool) "irreducible edge reported" true (ls.Loops.irreducible <> []);
  (* And the bufferability pass refuses the backward branch. *)
  let report = Bufferability.analyze ~iq_size:32 (parse irreducible_src) in
  match report.Bufferability.loops with
  | [ l ] ->
      Alcotest.(check bool) "verdict is irreducible" true
        (l.Bufferability.verdict = Error Bufferability.Irreducible)
  | ls_ -> Alcotest.failf "expected one analysed transfer, got %d" (List.length ls_)

(* ---- Trip counts and verdicts ---- *)

let counted_loop n =
  Printf.sprintf
    {|
start:
    addi r16, r0, 0
loop:
    add  r4, r4, r16
    addi r16, r16, 1
    slti r2, r16, %d
    bne  r2, r0, loop
    halt
|}
    n

let analyzed_loop ?(iq = 32) src =
  match (Bufferability.analyze ~iq_size:iq (parse src)).Bufferability.loops with
  | [ l ] -> l
  | ls -> Alcotest.failf "expected one analysed transfer, got %d" (List.length ls)

let test_trip_count () =
  List.iter
    (fun n ->
      let l = analyzed_loop (counted_loop n) in
      Alcotest.(check (option int)) (Printf.sprintf "trip of %d" n) (Some n)
        l.Bufferability.trip)
    [ 1; 7; 100; 2600 ]

let test_trip_count_down () =
  let l =
    analyzed_loop
      {|
start:
    addi r16, r0, 12
loop:
    add  r4, r4, r16
    addi r16, r16, -3
    bgtz r16, loop
    halt
|}
  in
  Alcotest.(check (option int)) "counting down by 3 from 12" (Some 4) l.Bufferability.trip

let test_verdict_bufferable () =
  let l = analyzed_loop (counted_loop 100) in
  Alcotest.(check bool) "bufferable" true (l.Bufferability.verdict = Ok ());
  Alcotest.(check bool) "promotes" true (l.Bufferability.prediction = Bufferability.Promotes);
  Alcotest.(check int) "span" 4 l.Bufferability.span;
  Alcotest.(check bool) "several iterations fit" true (l.Bufferability.unroll > 1)

let test_verdict_too_large () =
  let body = String.concat "" (List.init 40 (fun i -> Printf.sprintf "    addi r%d, r0, 1\n" (3 + (i mod 8)))) in
  let src = "start:\n    addi r16, r0, 0\nloop:\n" ^ body
            ^ "    addi r16, r16, 1\n    slti r2, r16, 9\n    bne r2, r0, loop\n    halt\n" in
  let l = analyzed_loop src in
  (match l.Bufferability.verdict with
  | Error (Bufferability.Too_large s) -> Alcotest.(check int) "span carried" 43 s
  | _ -> Alcotest.fail "expected Too_large");
  Alcotest.(check bool) "never promotes" true
    (l.Bufferability.prediction = Bufferability.Never_promotes)

let test_verdict_inner_loop () =
  let report =
    Bufferability.analyze ~iq_size:64 (parse nested_src)
  in
  let outer =
    List.find
      (fun l -> l.Bufferability.depth = 1)
      report.Bufferability.loops
  in
  (match outer.Bufferability.verdict with
  | Error (Bufferability.Inner_transfer _) -> ()
  | _ -> Alcotest.fail "outer loop should be rejected for its inner loop");
  let inner = List.find (fun l -> l.Bufferability.depth = 2) report.Bufferability.loops in
  Alcotest.(check bool) "inner loop is fine" true (inner.Bufferability.verdict = Ok ())

let call_loop callee_body =
  Printf.sprintf
    {|
start:
    addi r16, r0, 0
loop:
    jal  f
    addi r16, r16, 1
    slti r2, r16, 50
    bne  r2, r0, loop
    halt
f:
%s    jr   r31
|}
    callee_body

let test_verdict_callee_ok () =
  let l = analyzed_loop (call_loop "    addi r3, r3, 1\n") in
  Alcotest.(check bool) "small callee is bufferable" true (l.Bufferability.verdict = Ok ())

let test_verdict_call_overflow () =
  let big = String.concat "" (List.init 40 (fun i -> Printf.sprintf "    addi r%d, r0, 2\n" (3 + (i mod 8)))) in
  let l = analyzed_loop (call_loop big) in
  match l.Bufferability.verdict with
  | Error (Bufferability.Call_overflow fp) ->
      Alcotest.(check bool) "footprint includes the callee" true (fp > 40)
  | _ -> Alcotest.fail "expected Call_overflow"

let test_verdict_callee_loops () =
  (* The callee's internal loop is a second analysed transfer; pick the
     calling loop by its span. *)
  let body = "    addi r3, r0, 5\nfl:\n    addi r3, r3, -1\n    bgtz r3, fl\n" in
  let report = Bufferability.analyze ~iq_size:32 (parse (call_loop body)) in
  let l =
    List.fold_left
      (fun a b -> if b.Bufferability.span > a.Bufferability.span then b else a)
      (List.hd report.Bufferability.loops)
      report.Bufferability.loops
  in
  match l.Bufferability.verdict with
  | Error (Bufferability.Callee_loops _) -> ()
  | _ -> Alcotest.fail "expected Callee_loops"

let test_verdict_indirect () =
  (* The indirect jump sits in a branch arm so the loop tail stays
     statically reachable. *)
  let src =
    {|
start:
    addi r16, r0, 0
    la   r5, start
loop:
    beq  r16, r0, skipjr
    jr   r5
skipjr:
    addi r16, r16, 1
    slti r2, r16, 9
    bne  r2, r0, loop
    halt
|}
  in
  let l = analyzed_loop src in
  match l.Bufferability.verdict with
  | Error (Bufferability.Indirect _) -> ()
  | _ -> Alcotest.fail "expected Indirect"

(* ---- Differential: static pass vs. the dynamic core ---- *)

let coverage_tolerance = 10.0

let differential_one bench size () =
  let w = Workloads.find bench in
  let program = Workloads.program w in
  let cfg = Config.with_iq_size Config.reuse size in
  let report = Bufferability.analyze_config cfg program in
  let p = Processor.create cfg program in
  (match Processor.run p with
  | Processor.Halted -> ()
  | Cycle_limit -> Alcotest.fail "cycle limit");
  let decisions = Processor.loop_decisions p in
  let promotions_at tail =
    match List.find_opt (fun d -> d.Processor.ld_tail = tail) decisions with
    | Some d -> d.Processor.ld_promotions
    | None -> 0
  in
  (* Verdict agreement for every backward transfer the analyzer saw. *)
  List.iter
    (fun l ->
      let promos = promotions_at l.Bufferability.tail in
      match l.Bufferability.prediction with
      | Bufferability.Promotes ->
          Alcotest.(check bool)
            (Printf.sprintf "%s iq%d loop %x should promote" bench size l.Bufferability.tail)
            true (promos > 0)
      | Bufferability.Never_promotes ->
          Alcotest.(check int)
            (Printf.sprintf "%s iq%d loop %x should never promote" bench size
               l.Bufferability.tail)
            0 promos
      | Bufferability.Marginal -> ())
    report.Bufferability.loops;
  (* Every loop the detector ever considered is in the static report. *)
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "%s iq%d dynamic loop %x analysed statically" bench size
           d.Processor.ld_tail)
        true
        (List.exists (fun l -> l.Bufferability.tail = d.Processor.ld_tail) report.Bufferability.loops))
    decisions;
  (* Predicted coverage tracks measured coverage. *)
  let s = Processor.stats p in
  let measured =
    if s.Processor.committed = 0 then 0.
    else 100. *. float_of_int s.Processor.reuse_committed /. float_of_int s.Processor.committed
  in
  let predicted = Option.value ~default:0. report.Bufferability.coverage in
  Alcotest.(check bool)
    (Printf.sprintf "%s iq%d coverage: predicted %.1f vs measured %.1f" bench size predicted
       measured)
    true
    (Float.abs (predicted -. measured) <= coverage_tolerance)

let differential_tests =
  List.concat_map
    (fun w ->
      List.map
        (fun size ->
          Alcotest.test_case
            (Printf.sprintf "%s iq=%d" w.Workloads.name size)
            `Slow
            (differential_one w.Workloads.name size))
        [ 32; 128 ])
    Workloads.all

let suites =
  [
    ( "analysis.cfg",
      [
        Alcotest.test_case "blocks and edges" `Quick test_cfg_blocks;
        Alcotest.test_case "call edges" `Quick test_cfg_call_edges;
        Alcotest.test_case "rpo is topological" `Quick test_cfg_rpo_topological;
      ] );
    ( "analysis.dominators",
      [ Alcotest.test_case "diamond" `Quick test_dominators_diamond ] );
    ( "analysis.loops",
      [
        Alcotest.test_case "nest detection" `Quick test_loop_nest;
        Alcotest.test_case "irreducible rejected" `Quick test_irreducible_rejected;
      ] );
    ( "analysis.bufferability",
      [
        Alcotest.test_case "trip counts (up)" `Quick test_trip_count;
        Alcotest.test_case "trip counts (down)" `Quick test_trip_count_down;
        Alcotest.test_case "bufferable loop" `Quick test_verdict_bufferable;
        Alcotest.test_case "too large" `Quick test_verdict_too_large;
        Alcotest.test_case "inner loop" `Quick test_verdict_inner_loop;
        Alcotest.test_case "small callee ok" `Quick test_verdict_callee_ok;
        Alcotest.test_case "call overflow" `Quick test_verdict_call_overflow;
        Alcotest.test_case "callee loops" `Quick test_verdict_callee_loops;
        Alcotest.test_case "indirect" `Quick test_verdict_indirect;
      ] );
    ("analysis.differential", differential_tests);
  ]

(* Tests for the generic dataflow framework and its one client, value
   ranges, plus three soundness properties:

   - the solver's fixpoint self-check holds on random CFGs from the fuzz
     generator;
   - a non-monotone transfer function is detected, not silently
     "solved";
   - on every built-in kernel, the statically predicted revoke cause
     matches the dominant cause the core actually counted (on loops
     whose prediction is not Marginal). *)

open Riq_asm
open Riq_isa
open Riq_core
open Riq_workloads
open Riq_analysis

let parse = Parse.program_exn
let cfg_of src = Cfg.build (parse src)

(* ---- solver properties on random CFGs ---- *)

module IS = Set.Make (Int)

module L = struct
  type fact = IS.t

  let name = "reach-set"
  let bottom = IS.empty
  let equal = IS.equal
  let join = IS.union
  let widen = IS.union
end

module Solver = Dataflow.Make (L)

let transfer n input = IS.add n input

let random_graphs =
  lazy
    (List.filter_map
       (fun i ->
         let prog = Riq_fuzz.Gen.program ~seed:(Riq_fuzz.Gen.derive_seed 99 i) () in
         match Riq_fuzz.Prog.to_program prog with
         | Ok p -> Some (Dataflow.of_cfg (Cfg.build p))
         | Error _ -> None)
       (List.init 20 Fun.id))

(* [solve] re-checks its own fixpoint and raises [Unstable] when a
   further sweep would move a fact, so returning is the property. *)
let test_fixpoint_stable () =
  let graphs = Lazy.force random_graphs in
  Alcotest.(check int) "random graphs" 20 (List.length graphs);
  List.iter (fun g -> ignore (Solver.solve ~transfer g)) graphs

let test_non_monotone_detected () =
  (* Entry feeds a self-loop whose transfer erases the very mark it adds:
     the second visit computes an output strictly below the first, which
     must raise, not converge by accident of visit order. *)
  let g =
    {
      Dataflow.g_nodes = 2;
      g_entry = 0;
      g_succs = [| [ 1 ]; [ 1 ] |];
      g_preds = [| []; [ 0; 1 ] |];
      g_order = [| 0; 1 |];
    }
  in
  let shrinking n input =
    if n = 1 then (if IS.mem 99 input then IS.empty else IS.singleton 99)
    else input
  in
  Alcotest.check_raises "non-monotone transfer raises"
    (Dataflow.Non_monotone { lattice = "reach-set"; node = 1 })
    (fun () -> ignore (Solver.solve ~transfer:shrinking g))

(* ---- value-range propagation ---- *)

let pc_of p label = Option.get (Program.address_of p label)

let test_valrange_constants () =
  let src =
    {|
start:
    addi r2, r0, 10
    addi r3, r2, 5
    sll  r4, r3, 2
q:
    halt
|}
  in
  let p = parse src in
  let v = Valrange.analyze (Cfg.build p) in
  let at label r = Valrange.value_at v ~pc:(pc_of p label) (Reg.r r) in
  Alcotest.(check bool) "not tainted" false (Valrange.tainted v);
  Alcotest.(check (option int)) "r3 = 15" (Some 15) (Valrange.const (at "q" 3));
  Alcotest.(check (option int)) "r4 = 60" (Some 60) (Valrange.const (at "q" 4))

let test_valrange_join_and_call () =
  let src =
    {|
start:
    addi r2, r0, 7
    beq  r2, r0, else_
    addi r3, r0, 1
    j    join
else_:
    addi r3, r0, 2
join:
    add  r4, r3, r0
    jal  proc
after:
    halt
proc:
    addi r5, r0, 3
    jr   r31
|}
  in
  let p = parse src in
  let v = Valrange.analyze (Cfg.build p) in
  Alcotest.(check bool) "not tainted" false (Valrange.tainted v);
  (match Valrange.value_at v ~pc:(pc_of p "join") (Reg.r 3) with
  | Valrange.Range (1, 2) -> ()
  | other -> Alcotest.failf "r3 at join: expected [1,2], got %s" (Valrange.to_string other));
  (* The call havocs everything: the constant r2 held before [jal] is
     gone at the return point. *)
  (match Valrange.value_at v ~pc:(pc_of p "after") (Reg.r 2) with
  | Valrange.Top -> ()
  | other -> Alcotest.failf "r2 after call: expected Top, got %s" (Valrange.to_string other))

let test_valrange_tainted_by_jalr () =
  let src =
    {|
start:
    addi r2, r0, 5
    la   r8, start
    jalr r31, r8
q:
    halt
|}
  in
  let p = parse src in
  let v = Valrange.analyze (Cfg.build p) in
  Alcotest.(check bool) "tainted" true (Valrange.tainted v);
  (match Valrange.value_at v ~pc:(pc_of p "q") (Reg.r 2) with
  | Valrange.Top -> ()
  | other -> Alcotest.failf "tainted query: expected Top, got %s" (Valrange.to_string other))

(* ---- unreachable code ---- *)

let test_unreachable_reported () =
  let src =
    {|
start:
    addi r2, r0, 1
    j    out
dead:
    addi r3, r0, 2
    addi r3, r3, 1
out:
    halt
|}
  in
  let p = parse src in
  let report = Bufferability.analyze ~iq_size:32 p in
  match report.Bufferability.unreachable with
  | [ (first, last) ] ->
      Alcotest.(check int) "range starts at dead" (pc_of p "dead") first;
      Alcotest.(check int) "range spans both insns" (pc_of p "dead" + 4) last
  | other -> Alcotest.failf "expected one unreachable range, got %d" (List.length other)

(* ---- kernels: predicted vs measured revoke causes ---- *)

let dominant_cause (d : Processor.loop_decision) =
  List.fold_left
    (fun acc c ->
      let n = Processor.revokes d c in
      match acc with Some (_, m) when m >= n -> acc | _ -> if n > 0 then Some (c, n) else acc)
    None Reuse_state.revoke_causes

let test_kernel_revoke_causes () =
  List.iter
    (fun w ->
      let program = Workloads.program w in
      let cfg = Riq_ooo.Config.with_iq_size Riq_ooo.Config.reuse 32 in
      let report = Bufferability.analyze_config cfg program in
      let p = Processor.create cfg program in
      (match Processor.run p with
      | Processor.Halted -> ()
      | Processor.Cycle_limit -> Alcotest.failf "%s: cycle limit" w.Workloads.name);
      List.iter
        (fun (d : Processor.loop_decision) ->
          match
            List.find_opt
              (fun l -> l.Bufferability.tail = d.Processor.ld_tail)
              report.Bufferability.loops
          with
          | None -> ()
          | Some l -> (
              match (l.Bufferability.predicted_cause, dominant_cause d) with
              | Some c, Some (dc, _) when l.Bufferability.prediction <> Bufferability.Marginal
                ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s loop %08x: predicted cause" w.Workloads.name
                       d.Processor.ld_tail)
                    (Reuse_state.cause_to_string c)
                    (Reuse_state.cause_to_string dc)
              | _ -> ()))
        (Processor.loop_decisions p))
    Workloads.all

let suites =
  [
    ( "dataflow.solver",
      [
        Alcotest.test_case "fixpoint stable on random CFGs" `Quick test_fixpoint_stable;
        Alcotest.test_case "non-monotone transfer detected" `Quick
          test_non_monotone_detected;
      ] );
    ( "dataflow.valrange",
      [
        Alcotest.test_case "constants fold" `Quick test_valrange_constants;
        Alcotest.test_case "join and call havoc" `Quick test_valrange_join_and_call;
        Alcotest.test_case "jalr taints" `Quick test_valrange_tainted_by_jalr;
      ] );
    ( "dataflow.unreachable",
      [ Alcotest.test_case "dead block reported" `Quick test_unreachable_reported ] );
    ( "dataflow.kernels",
      [
        Alcotest.test_case "revoke causes and claims on all kernels" `Quick
          test_kernel_revoke_causes;
      ] );
  ]

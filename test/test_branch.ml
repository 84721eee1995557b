open Riq_isa
open Riq_branch

(* ---- Bimod ---- *)

let test_bimod_saturation () =
  let b = Bimod.create 16 in
  let pc = 0x1000 in
  Alcotest.(check int) "init weakly not-taken" 1 (Bimod.counter b ~pc);
  Alcotest.(check bool) "predicts not-taken" false (Bimod.predict b ~pc);
  Bimod.update b ~pc ~taken:true;
  Alcotest.(check bool) "one taken flips" true (Bimod.predict b ~pc);
  Bimod.update b ~pc ~taken:true;
  Bimod.update b ~pc ~taken:true;
  Alcotest.(check int) "saturates at 3" 3 (Bimod.counter b ~pc);
  Bimod.update b ~pc ~taken:false;
  Alcotest.(check bool) "hysteresis" true (Bimod.predict b ~pc);
  Bimod.update b ~pc ~taken:false;
  Bimod.update b ~pc ~taken:false;
  Bimod.update b ~pc ~taken:false;
  Alcotest.(check int) "saturates at 0" 0 (Bimod.counter b ~pc)

let test_bimod_aliasing () =
  let b = Bimod.create 16 in
  (* PCs 16 entries apart share a counter (aliasing); adjacent ones don't. *)
  Bimod.update b ~pc:0 ~taken:true;
  Bimod.update b ~pc:0 ~taken:true;
  Alcotest.(check bool) "alias" true (Bimod.predict b ~pc:(16 * 4));
  Alcotest.(check bool) "neighbour" false (Bimod.predict b ~pc:4)

(* ---- Btb ---- *)

let btb_lookup b ~pc = match Btb.lookup_target b ~pc with -1 -> None | target -> Some target

let test_btb_basic () =
  let b = Btb.create ~sets:4 ~ways:2 in
  Alcotest.(check (option int)) "cold" None (btb_lookup b ~pc:0x100);
  Btb.update b ~pc:0x100 ~target:0x500;
  Alcotest.(check (option int)) "hit" (Some 0x500) (btb_lookup b ~pc:0x100);
  Btb.update b ~pc:0x100 ~target:0x600;
  Alcotest.(check (option int)) "retarget" (Some 0x600) (btb_lookup b ~pc:0x100)

let test_btb_eviction () =
  let b = Btb.create ~sets:1 ~ways:2 in
  Btb.update b ~pc:0x0 ~target:1;
  Btb.update b ~pc:0x4 ~target:2;
  ignore (btb_lookup b ~pc:0x0); (* refresh *)
  Btb.update b ~pc:0x8 ~target:3; (* evicts 0x4 *)
  Alcotest.(check (option int)) "kept" (Some 1) (btb_lookup b ~pc:0x0);
  Alcotest.(check (option int)) "evicted" None (btb_lookup b ~pc:0x4);
  Alcotest.(check (option int)) "new" (Some 3) (btb_lookup b ~pc:0x8)

(* ---- Ras ---- *)

let ras_pop r = match Ras.pop r with -1 -> None | v -> Some v

let test_ras_stack () =
  let r = Ras.create 4 in
  Alcotest.(check (option int)) "empty pop" None (ras_pop r);
  Ras.push r 10;
  Ras.push r 20;
  Alcotest.(check int) "depth" 2 (Ras.depth r);
  Alcotest.(check (option int)) "lifo" (Some 20) (ras_pop r);
  Alcotest.(check (option int)) "lifo 2" (Some 10) (ras_pop r)

let test_ras_overflow () =
  let r = Ras.create 2 in
  Ras.push r 1;
  Ras.push r 2;
  Ras.push r 3; (* overwrites oldest *)
  Alcotest.(check (option int)) "top" (Some 3) (ras_pop r);
  Alcotest.(check (option int)) "second" (Some 2) (ras_pop r);
  Alcotest.(check (option int)) "oldest gone" None (ras_pop r)

let test_ras_checkpoint () =
  let r = Ras.create 4 in
  Ras.push r 10;
  let ck = Ras.checkpoint r in
  Ras.push r 20;
  ignore (ras_pop r);
  ignore (ras_pop r);
  Ras.restore r ck;
  Alcotest.(check (option int)) "restored top" (Some 10) (ras_pop r)

(* ---- Gshare ---- *)

let test_gshare_learns_pattern () =
  let g = Gshare.create ~entries:256 ~history_bits:4 in
  let pc = 0x40 in
  (* alternating pattern T N T N: gshare separates by history. *)
  for _ = 1 to 40 do
    Gshare.update g ~pc ~taken:true;
    Gshare.update g ~pc ~taken:false
  done;
  let p1 = Gshare.predict g ~pc in
  Gshare.update g ~pc ~taken:p1;
  let p2 = Gshare.predict g ~pc in
  Alcotest.(check bool) "alternation learned" true (p1 <> p2)

(* ---- Predictor ---- *)

(* The decoded entry points, fed from an instruction the way the fetch
   and writeback stages feed them from the side tables; [lookup] returns
   the predicted next pc, [-1] when there is no target. *)
let lookup p ~pc ~insn =
  let static_target = match Insn.ctrl_target insn ~pc with Some t -> t | None -> -1 in
  Predictor.lookup_decoded p ~pc ~kind:(Insn.kind insn) ~static_target

let resolve p ~pc ~insn ~taken ~target =
  Predictor.resolve_decoded p ~pc ~kind:(Insn.kind insn) ~taken ~target

let test_predictor_branch_flow () =
  let p = Predictor.create Predictor.baseline in
  let pc = 0x1000 in
  let insn = Insn.Br (Beq, Reg.r 1, Reg.r 2, -4) in
  let npc = lookup p ~pc ~insn in
  Alcotest.(check bool) "cold not taken" true (npc = pc + 4);
  resolve p ~pc ~insn ~taken:true ~target:0x0FF4;
  let npc = lookup p ~pc ~insn in
  Alcotest.(check bool) "trained taken" true (npc <> pc + 4);
  Alcotest.(check int) "static target" 0x0FF4 npc

let test_predictor_call_return () =
  let p = Predictor.create Predictor.baseline in
  let npc = lookup p ~pc:0x2000 ~insn:(Insn.Jal 0x1000) in
  Alcotest.(check int) "call target" 0x4000 npc;
  let btb_before = Predictor.btb_lookups p and ras_before = Predictor.ras_ops p in
  let npc = lookup p ~pc:0x4010 ~insn:(Insn.Jr Reg.ra) in
  Alcotest.(check bool) "return uses RAS" true
    (Predictor.ras_ops p = ras_before + 1 && Predictor.btb_lookups p = btb_before);
  Alcotest.(check int) "return target" 0x2004 npc

let test_predictor_indirect () =
  let p = Predictor.create Predictor.baseline in
  let insn = Insn.Jr (Reg.r 5) in
  Alcotest.(check int) "unknown target" (-1) (lookup p ~pc:0x3000 ~insn);
  resolve p ~pc:0x3000 ~insn ~taken:true ~target:0x8000;
  Alcotest.(check int) "btb learned" 0x8000 (lookup p ~pc:0x3000 ~insn)

let test_predictor_checkpoint () =
  let p = Predictor.create Predictor.baseline in
  ignore (lookup p ~pc:0x100 ~insn:(Insn.Jal 0x400));
  let ck = Predictor.checkpoint p in
  ignore (lookup p ~pc:0x1010 ~insn:(Insn.Jr Reg.ra)); (* pops *)
  Predictor.restore p ck;
  Alcotest.(check int) "restored return" 0x104 (lookup p ~pc:0x1010 ~insn:(Insn.Jr Reg.ra))

let test_predictor_counts () =
  let p = Predictor.create Predictor.baseline in
  ignore (lookup p ~pc:0 ~insn:(Insn.Br (Beq, 1, 2, 1)));
  ignore (lookup p ~pc:4 ~insn:(Insn.Alu (Add, 1, 2, 3)));
  Alcotest.(check int) "non-ctrl free" 1 (Predictor.dir_lookups p);
  resolve p ~pc:0 ~insn:(Insn.Br (Beq, 1, 2, 1)) ~taken:true ~target:8;
  Alcotest.(check int) "updates" 1 (Predictor.dir_updates p)

(* qcheck: bimod counter never leaves [0,3] *)
let prop_bimod_range =
  QCheck.Test.make ~name:"bimod counter stays in range" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 100) bool)
    (fun updates ->
      let b = Bimod.create 4 in
      List.for_all
        (fun taken ->
          Bimod.update b ~pc:0 ~taken;
          let c = Bimod.counter b ~pc:0 in
          c >= 0 && c <= 3)
        updates)

(* qcheck: RAS behaves like a bounded stack that drops the bottom *)
let prop_ras_vs_model =
  QCheck.Test.make ~name:"RAS matches bounded-stack model" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 60) (option (int_bound 1000)))
    (fun ops ->
      let r = Ras.create 4 in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              Ras.push r v;
              model := v :: List.filteri (fun i _ -> i < 3) !model;
              true
          | None -> (
              let got = ras_pop r in
              match !model with
              | [] -> got = None
              | v :: rest ->
                  model := rest;
                  got = Some v))
        ops)

let suites =
  [
    ( "branch",
      [
        Alcotest.test_case "bimod saturation" `Quick test_bimod_saturation;
        Alcotest.test_case "bimod aliasing" `Quick test_bimod_aliasing;
        Alcotest.test_case "btb basic" `Quick test_btb_basic;
        Alcotest.test_case "btb eviction" `Quick test_btb_eviction;
        Alcotest.test_case "ras stack" `Quick test_ras_stack;
        Alcotest.test_case "ras overflow" `Quick test_ras_overflow;
        Alcotest.test_case "ras checkpoint" `Quick test_ras_checkpoint;
        Alcotest.test_case "gshare pattern" `Quick test_gshare_learns_pattern;
        Alcotest.test_case "predictor branch flow" `Quick test_predictor_branch_flow;
        Alcotest.test_case "predictor call/return" `Quick test_predictor_call_return;
        Alcotest.test_case "predictor indirect" `Quick test_predictor_indirect;
        Alcotest.test_case "predictor checkpoint" `Quick test_predictor_checkpoint;
        Alcotest.test_case "predictor counters" `Quick test_predictor_counts;
        QCheck_alcotest.to_alcotest prop_bimod_range;
        QCheck_alcotest.to_alcotest prop_ras_vs_model;
      ] );
  ]

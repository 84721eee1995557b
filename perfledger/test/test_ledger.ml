(* Fast checks of the ledger's contract: BENCHMARK.json agrees with what
   the tool prints, the golden digests cover the paper grid and still
   match the simulator, a perturbed digest fails an op, inputs are a
   function of the seed, and compare's verdicts follow the bounds. *)

open Riq_ledger

let benchmark_path = "../../BENCHMARK.json"
let golden_path = "../golden.json"

let benchmark () =
  match Spec.read_benchmark benchmark_path with
  | Ok b -> b
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)

let names_units ms = List.map (fun (m : Spec.metric) -> (m.name, m.unit_)) ms

let test_benchmark_parses () =
  let b = benchmark () in
  Alcotest.(check (list string)) "workloads" Spec.workloads b.workload_names;
  Alcotest.(check bool) "every end-to-end metric has a bound" true
    (List.for_all (fun (m : Spec.metric) -> m.bound <> None) b.e2e)

let valid_name name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let test_metric_names () =
  let b = benchmark () in
  List.iter
    (fun (m : Spec.metric) ->
      Alcotest.(check bool) ("valid name " ^ m.name) true (valid_name m.name))
    (b.e2e @ b.layers)

let test_printed_names () =
  let b = benchmark () in
  let sorted l = List.sort compare l in
  Alcotest.(check (list (pair string string)))
    "end-to-end names and units" (sorted Spec.end_to_end) (sorted (names_units b.e2e));
  Alcotest.(check (list (pair string string)))
    "per-layer names and units" (sorted Spec.per_layer) (sorted (names_units b.layers))

let test_golden_covers_grid () =
  let g = Golden.load golden_path in
  let keys = List.map (fun (c : Inputs.cell) -> c.key) (Inputs.paper_cells ()) in
  Alcotest.(check int) "64 paper cells" 64 (List.length keys);
  List.iter (fun k -> Alcotest.(check bool) ("golden has " ^ k) true (Hashtbl.mem g.cells k)) keys;
  Alcotest.(check int) "nothing else" 64 (Hashtbl.length g.cells)

let vpenta_cell () = Inputs.make_cell "vpenta" "baseline" 64

let simulate_vpenta () =
  let c = vpenta_cell () in
  let program = Riq_workloads.Workloads.program (Riq_workloads.Workloads.find "vpenta") in
  (c, Core_loop.reference program, Core_loop.simulate c.cfg program)

let test_golden_resimulates () =
  let g = Golden.load golden_path in
  let c, reference, sim = simulate_vpenta () in
  match Core_loop.check ~golden:g ~key:c.key ~reference sim with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_perturbed_digest_fails () =
  let g = Golden.load golden_path in
  let c, reference, sim = simulate_vpenta () in
  let d = Hashtbl.find g.cells c.key in
  Hashtbl.replace g.cells c.key (String.map (function '0' -> '1' | _ -> '0') d);
  let t = Core_loop.tally () in
  Core_loop.record t c.key (Core_loop.check ~golden:g ~key:c.key ~reference sim);
  Alcotest.(check bool) "failed_frac above 0" true (Core_loop.failed_frac t > 0.)

let keys cells = Array.to_list (Array.map (fun (c : Inputs.cell) -> c.key) cells)

let test_inputs_follow_seed () =
  List.iter
    (fun w ->
      Alcotest.(check (list string)) (w ^ " same seed")
        (keys (Inputs.core_cells w ~seed:1)) (keys (Inputs.core_cells w ~seed:1)))
    [ "core-tight"; "core-large" ];
  let sweep seed = Inputs.sweep_jobs ~seed in
  let a = sweep 1 and b = sweep 1 in
  Alcotest.(check bool) "sweep jobs identical for one seed" true (a = b);
  Alcotest.(check bool) "sweep order differs between seeds" true
    (keys (Array.map fst a) <> keys (Array.map fst (sweep 2)));
  let excluded = (Golden.load golden_path).fuzz_excluded in
  let fuzz seed = List.map fst (Inputs.fuzz_programs ~excluded ~seed ~pass:0) in
  Alcotest.(check (list int)) "fuzz programs identical for one seed" (fuzz 1) (fuzz 1);
  Alcotest.(check bool) "fuzz programs differ between seeds 1 and 2" true
    (List.for_all2 ( <> ) (fuzz 1) (fuzz 2));
  Alcotest.(check bool) "excluded programs are never drawn" true
    (List.for_all
       (fun i -> not (List.mem (Inputs.fuzz_pool_seed i) (fuzz 1 @ fuzz 2)))
       excluded)

let test_quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Measure.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "exclusive quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ]

let test_compare_verdicts () =
  let m = { Spec.name = "pass_s"; unit_ = "s"; lower_is_better = true; bound = Some 0.1 } in
  let around c = Array.init 10 (fun i -> c *. (1. +. (0.002 *. float_of_int (i - 5)))) in
  let verdict a b =
    let _, _, _, v = Ledger_file.judge m ~bound:0.1 a b in
    Ledger_file.verdict_to_string v
  in
  Alcotest.(check string) "same" "within" (verdict (around 1.) (around 1.02));
  Alcotest.(check string) "15% slower" "worse" (verdict (around 1.) (around 1.15));
  Alcotest.(check string) "faster everywhere" "within" (verdict (around 1.) (around 0.5));
  let noisy = Array.init 10 (fun i -> if i mod 2 = 0 then 1. else 1.5) in
  Alcotest.(check string) "spread wider than bound" "unresolved" (verdict noisy (around 1.3))

let () =
  Alcotest.run "ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "BENCHMARK.json parses" `Quick test_benchmark_parses;
          Alcotest.test_case "metric names are well formed" `Quick test_metric_names;
          Alcotest.test_case "printed names equal BENCHMARK.json" `Quick test_printed_names;
          Alcotest.test_case "golden covers 64 cells" `Quick test_golden_covers_grid;
          Alcotest.test_case "vpenta baseline IQ 64 matches golden" `Quick test_golden_resimulates;
          Alcotest.test_case "perturbed digest fails the op" `Quick test_perturbed_digest_fails;
          Alcotest.test_case "inputs are a function of the seed" `Quick test_inputs_follow_seed;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles_match_python;
          Alcotest.test_case "compare verdicts" `Quick test_compare_verdicts;
        ] );
    ]

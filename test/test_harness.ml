open Riq_ooo
open Riq_core
open Riq_harness
open Riq_workloads

let test_run_simulate () =
  let w = Workloads.find "tsf" in
  let job = Riq_exp.Job.make ~check:true Config.reuse (Workloads.program w) in
  match Riq_exp.Runner.execute job with
  | Error e -> Alcotest.fail (Riq_exp.Outcome.error_to_string e)
  | Ok r ->
      Alcotest.(check bool) "checked" true (r.Riq_exp.Outcome.arch_ok = Some true);
      Alcotest.(check bool) "total covers groups" true
        (r.Riq_exp.Outcome.total_power
        > r.icache_power +. r.bpred_power +. r.iq_power +. r.overhead_power);
      Alcotest.(check bool) "gating" true (r.stats.Processor.gated_fraction > 0.5)

let test_reduction () =
  Alcotest.(check (float 1e-9)) "half" 50. (Sweep.reduction 10. 5.);
  Alcotest.(check (float 1e-9)) "zero base" 0. (Sweep.reduction 0. 5.);
  Alcotest.(check (float 1e-9)) "increase" (-10.) (Sweep.reduction 10. 11.)

(* A reduced sweep exercises every figure printer. *)
let small_sweep =
  lazy
    (Sweep.run ~check:false ~sizes:[ 32; 64 ]
       ~benchmarks:[ Workloads.find "tsf"; Workloads.find "wss" ]
       ())

let test_sweep_cells () =
  let s = Lazy.force small_sweep in
  let c = Sweep.cell s ~bench:"tsf" ~size:32 in
  Alcotest.(check bool) "baseline no gating" true
    (c.Sweep.baseline.Riq_exp.Outcome.stats.Processor.gated_cycles = 0);
  Alcotest.(check bool) "reuse gates" true
    (c.Sweep.reuse.Riq_exp.Outcome.stats.Processor.gated_fraction > 0.5);
  Alcotest.(check bool) "unknown bench" true
    (try
       ignore (Sweep.cell s ~bench:"zzz" ~size:32);
       false
     with Invalid_argument _ -> true)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_figures_render () =
  let s = Lazy.force small_sweep in
  let t5 = Riq_util.Table.render (Figures.fig5 s) in
  Alcotest.(check bool) "fig5 rows" true (contains t5 "tsf" && contains t5 "average");
  let t6 = Riq_util.Table.render (Figures.fig6 s) in
  Alcotest.(check bool) "fig6 series" true
    (contains t6 "Icache" && contains t6 "Bpred" && contains t6 "IssueQueue"
   && contains t6 "Overhead");
  let t7 = Riq_util.Table.render (Figures.fig7 s) in
  Alcotest.(check bool) "fig7" true (contains t7 "IQ 64");
  let t8 = Riq_util.Table.render (Figures.fig8 s) in
  Alcotest.(check bool) "fig8" true (contains t8 "wss")

let test_table1_text () =
  let t = Figures.table1 () in
  Alcotest.(check bool) "issue queue line" true (contains t "Issue Queue        64 entries");
  Alcotest.(check bool) "fu line" true (contains t "4 IALU, 1 IMULT, 4 FPALU, 1 FPMULT")

let test_table2 () =
  let t = Riq_util.Table.render (Figures.table2 ()) in
  List.iter
    (fun w -> Alcotest.(check bool) w.Workloads.name true (contains t w.Workloads.name))
    Workloads.all

let test_fig5_values_sane () =
  let s = Lazy.force small_sweep in
  List.iter
    (fun (bench, per_size) ->
      List.iter
        (fun (_, c) ->
          let g = c.Sweep.reuse.Riq_exp.Outcome.stats.Processor.gated_fraction in
          Alcotest.(check bool) (bench ^ " gating in [0,1]") true (g >= 0. && g <= 1.))
        per_size)
    s.Sweep.cells

(* Checking the revoke-cause runs against the interpreter validates them
   without moving a number. *)
let test_revokes_checked () =
  let csv check = Riq_util.Table.to_csv (Figures.revoke_causes ~check ()) in
  Alcotest.(check string) "checked table = unchecked table" (csv false) (csv true)

(* ---- Run report ---- *)

let obj_assoc name = function
  | Riq_util.Json.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> Alcotest.fail ("missing key " ^ name))
  | _ -> Alcotest.fail "expected a JSON object"

let test_report_stats_field_for_field () =
  let w = Workloads.find "mxm" in
  let p = Processor.create (Config.with_iq_size Config.reuse 64) (Workloads.program w) in
  (match Processor.run p with
  | Processor.Halted -> ()
  | Processor.Cycle_limit -> Alcotest.fail "cycle limit");
  let report = Report.make ~benchmark:"mxm" p in
  Alcotest.(check string) "schema" Report.schema
    (match obj_assoc "schema" report with Riq_util.Json.String s -> s | _ -> "");
  let s = Processor.stats p in
  let block = obj_assoc "stats" report in
  let geti k = match obj_assoc k block with
    | Riq_util.Json.Int v -> v
    | _ -> Alcotest.fail (k ^ " not an int")
  and getf k = match obj_assoc k block with
    | Riq_util.Json.Float v -> v
    | _ -> Alcotest.fail (k ^ " not a float")
  in
  Alcotest.(check int) "cycles" s.Processor.cycles (geti "cycles");
  Alcotest.(check int) "committed" s.Processor.committed (geti "committed");
  Alcotest.(check (float 0.)) "ipc" s.Processor.ipc (getf "ipc");
  Alcotest.(check int) "gated_cycles" s.Processor.gated_cycles (geti "gated_cycles");
  Alcotest.(check (float 0.)) "gated_fraction" s.Processor.gated_fraction (getf "gated_fraction");
  Alcotest.(check int) "branches" s.Processor.branches (geti "branches");
  Alcotest.(check int) "mispredicts" s.Processor.mispredicts (geti "mispredicts");
  Alcotest.(check int) "loads" s.Processor.loads (geti "loads");
  Alcotest.(check int) "stores" s.Processor.stores (geti "stores");
  Alcotest.(check int) "reuse_dispatches" s.Processor.reuse_dispatches (geti "reuse_dispatches");
  Alcotest.(check int) "reuse_committed" s.Processor.reuse_committed (geti "reuse_committed");
  Alcotest.(check int) "buffer_attempts" s.Processor.buffer_attempts (geti "buffer_attempts");
  Alcotest.(check int) "revokes" s.Processor.revokes (geti "revokes");
  Alcotest.(check int) "promotions" s.Processor.promotions (geti "promotions");
  Alcotest.(check int) "reuse_exits" s.Processor.reuse_exits (geti "reuse_exits");
  Alcotest.(check (float 0.)) "avg_power" s.Processor.avg_power (getf "avg_power");
  Alcotest.(check int) "icache_accesses" s.Processor.icache_accesses (geti "icache_accesses");
  Alcotest.(check int) "icache_misses" s.Processor.icache_misses (geti "icache_misses");
  Alcotest.(check int) "dcache_accesses" s.Processor.dcache_accesses (geti "dcache_accesses");
  Alcotest.(check int) "dcache_misses" s.Processor.dcache_misses (geti "dcache_misses");
  (* The sweep export embeds the identical rendering per cell. *)
  Alcotest.(check bool) "sweep-compatible" true (Report.stats_json s = block);
  (* Nothing fills these, so no document carries them. *)
  let absent k = function
    | Riq_util.Json.Obj kvs -> not (List.mem_assoc k kvs)
    | _ -> false
  in
  List.iter
    (fun k -> Alcotest.(check bool) ("no " ^ k) true (absent k block))
    [ "skipped_cycles"; "ffwd_iterations" ];
  Alcotest.(check bool) "no trace block" true (absent "trace" report);
  (* Power groups are present and sum to the total. *)
  let power = obj_assoc "power" report in
  (match power with
  | Riq_util.Json.Obj kvs ->
      let total = List.assoc "total" kvs in
      let sum =
        List.fold_left
          (fun acc (k, v) ->
            if k = "total" then acc
            else acc +. (match v with Riq_util.Json.Float f -> f | _ -> 0.))
          0. kvs
      in
      Alcotest.(check (float 1e-6)) "groups sum to total"
        (match total with Riq_util.Json.Float f -> f | _ -> -1.)
        sum
  | _ -> Alcotest.fail "power block");
  (* No sampler was attached, so the report says so. *)
  Alcotest.(check bool) "sampler null" true (obj_assoc "sampler" report = Riq_util.Json.Null)

let test_sweep_json_telemetry () =
  let engine = Riq_exp.Engine.create ~workers:1 () in
  let sweep =
    Sweep.run ~engine ~check:false ~sizes:[ 32 ] ~benchmarks:[ Workloads.find "tsf" ] ()
  in
  let js = Sweep.to_json ~engine sweep in
  let e = obj_assoc "engine" js in
  let geti k = match obj_assoc k e with
    | Riq_util.Json.Int v -> v
    | _ -> Alcotest.fail (k ^ " not an int")
  in
  Alcotest.(check int) "jobs" 2 (geti "jobs");
  Alcotest.(check int) "no cache attached: zero hits" 0 (geti "cache_hits");
  Alcotest.(check int) "misses" 2 (geti "cache_misses");
  Alcotest.(check int) "executed" 2 (geti "executed");
  Alcotest.(check int) "retries" 0 (geti "retries");
  (match obj_assoc "wall_seconds" e with
  | Riq_util.Json.Float w -> Alcotest.(check bool) "wall time measured" true (w > 0.)
  | _ -> Alcotest.fail "wall_seconds");
  let jt = obj_assoc "job_seconds" e in
  Alcotest.(check int) "job time series count" 2
    (match obj_assoc "count" jt with Riq_util.Json.Int v -> v | _ -> -1);
  (match (obj_assoc "p50" jt, obj_assoc "max" jt) with
  | Riq_util.Json.Float p50, Riq_util.Json.Float mx ->
      Alcotest.(check bool) "quantiles ordered" true (0. < p50 && p50 <= mx)
  | _ -> Alcotest.fail "job time quantiles")

let suites =
  [
    ( "harness",
      [
        Alcotest.test_case "run simulate" `Quick test_run_simulate;
        Alcotest.test_case "reduction" `Quick test_reduction;
        Alcotest.test_case "sweep cells" `Slow test_sweep_cells;
        Alcotest.test_case "figure printers" `Slow test_figures_render;
        Alcotest.test_case "table 1 text" `Quick test_table1_text;
        Alcotest.test_case "table 2" `Quick test_table2;
        Alcotest.test_case "fig5 sanity" `Slow test_fig5_values_sane;
        Alcotest.test_case "revokes checked" `Slow test_revokes_checked;
        Alcotest.test_case "report stats field-for-field" `Quick test_report_stats_field_for_field;
        Alcotest.test_case "sweep json telemetry" `Slow test_sweep_json_telemetry;
      ] );
  ]

open Riq_util
open Riq_ooo
open Riq_core
open Riq_workloads
open Riq_exp

let table1 () = Format.asprintf "%a" Config.pp Config.baseline

let table2 () =
  let t =
    Table.create ~title:"Table 2. Array-intensive applications."
      [ ("Name", Table.Left); ("Source", Table.Left); ("Description", Table.Left) ]
  in
  List.iter
    (fun w -> Table.add_row t [ w.Workloads.name; w.Workloads.source; w.Workloads.description ])
    Workloads.all;
  t

let size_cols sizes =
  ("Benchmark", Table.Left) :: List.map (fun s -> (Printf.sprintf "IQ %d" s, Table.Right)) sizes

(* One row per benchmark, one column per size, plus an average row. *)
let per_bench_table ~title ~digits sweep value =
  let t = Table.create ~title (size_cols sweep.Sweep.sizes) in
  let sums = Array.make (List.length sweep.Sweep.sizes) 0. in
  List.iter
    (fun (bench, per_size) ->
      let cells =
        List.mapi
          (fun i (_, c) ->
            let v = value c in
            sums.(i) <- sums.(i) +. v;
            Table.cell_pct ~digits v)
          per_size
      in
      Table.add_row t (bench :: cells))
    sweep.Sweep.cells;
  Table.add_sep t;
  let n = float_of_int (List.length sweep.Sweep.cells) in
  Table.add_row t
    ("average" :: Array.to_list (Array.map (fun s -> Table.cell_pct ~digits (s /. n)) sums));
  t

let fig5 sweep =
  per_bench_table
    ~title:
      "Figure 5. Percentage of total execution cycles with the pipeline front-end gated."
    ~digits:1 sweep
    (fun c -> 100. *. c.Sweep.reuse.Outcome.stats.Processor.gated_fraction)

let fig7 sweep =
  per_bench_table ~title:"Figure 7. Overall power (per cycle) reduction." ~digits:1 sweep
    (fun c ->
      Sweep.reduction c.Sweep.baseline.Outcome.total_power c.Sweep.reuse.Outcome.total_power)

let fig8 sweep =
  per_bench_table ~title:"Figure 8. Performance (IPC) degradation." ~digits:2 sweep (fun c ->
      Sweep.reduction c.Sweep.baseline.Outcome.stats.Processor.ipc
        c.Sweep.reuse.Outcome.stats.Processor.ipc)

(* Static bufferability analysis vs. dynamic measurement: for every
   benchmark and queue size, the reuse coverage (percent of committed
   instructions supplied by the issue queue) as the analyzer predicts it
   and as the simulator measures it. *)
let coverage sweep =
  let cols =
    ("Benchmark", Table.Left)
    :: List.concat_map
         (fun s ->
           [ (Printf.sprintf "IQ %d pred" s, Table.Right); ("meas", Table.Right) ])
         sweep.Sweep.sizes
  in
  let t =
    Table.create
      ~title:
        "Static bufferability analysis: predicted vs. measured reuse coverage \
         (percent of committed instructions supplied by the issue queue)."
      cols
  in
  List.iter
    (fun (bench, per_size) ->
      let w = Workloads.find bench in
      let program = Workloads.program w in
      let cells =
        List.concat_map
          (fun (size, c) ->
            let cfg = Config.with_iq_size Config.reuse size in
            let report = Riq_analysis.Bufferability.analyze_config cfg program in
            let predicted =
              Option.value ~default:0. report.Riq_analysis.Bufferability.coverage
            in
            let s = c.Sweep.reuse.Outcome.stats in
            let measured =
              if s.Processor.committed = 0 then 0.
              else
                100.
                *. float_of_int s.Processor.reuse_committed
                /. float_of_int s.Processor.committed
            in
            [ Table.cell_pct ~digits:1 predicted; Table.cell_pct ~digits:1 measured ])
          per_size
      in
      Table.add_row t (bench :: cells))
    sweep.Sweep.cells;
  t

let fig6 sweep =
  let t =
    Table.create
      ~title:
        "Figure 6. Power reduction in the instruction cache, branch predictor and issue\n\
         queue, and overhead power (share of total), averaged over the benchmarks."
      (("Series", Table.Left)
      :: List.map (fun s -> (Printf.sprintf "IQ %d" s, Table.Right)) sweep.Sweep.sizes)
  in
  let avg f =
    List.map
      (fun size ->
        let vals =
          List.map (fun (bench, _) -> f (Sweep.cell sweep ~bench ~size)) sweep.Sweep.cells
        in
        Stats.mean (Array.of_list vals))
      sweep.Sweep.sizes
  in
  let row name vals = Table.add_row t (name :: List.map (Table.cell_pct ~digits:1) vals) in
  let group f = avg (fun c -> Sweep.reduction (f c.Sweep.baseline) (f c.Sweep.reuse)) in
  row "Icache" (group (fun r -> r.Outcome.icache_power));
  row "Bpred" (group (fun r -> r.Outcome.bpred_power));
  row "IssueQueue" (group (fun r -> r.Outcome.iq_power));
  row "Overhead"
    (avg (fun c ->
         100. *. c.Sweep.reuse.Outcome.overhead_power /. c.Sweep.reuse.Outcome.total_power));
  t

(* ------------------------------------------------------------------ *)
(* Ablations: each builds one job batch over all benchmarks and hands   *)
(* it to the engine, so a parallel/cached engine accelerates them the   *)
(* same way it accelerates the main sweep. [per_bench] runs [variants]  *)
(* jobs per benchmark and gives the row printer that benchmark's slice. *)
(* ------------------------------------------------------------------ *)

let per_bench ?engine ~jobs_of row_of =
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let specs = List.map (fun w -> (w, jobs_of w)) Workloads.all in
  let batch = Array.of_list (List.concat_map snd specs) in
  let results = Engine.run_exn engine batch in
  let off = ref 0 in
  List.iter
    (fun (w, jobs) ->
      let slice = Array.sub results !off (List.length jobs) in
      off := !off + List.length jobs;
      row_of w slice)
    specs

let fig9 ?engine ?(check = true) () =
  let t =
    Table.create
      ~title:
        "Figure 9. Impact of compiler optimizations (loop distribution), 64-entry issue\n\
         queue: overall power reduction, gated cycles and performance loss."
      [
        ("Benchmark", Table.Left);
        ("Power red. (orig)", Table.Right);
        ("Power red. (opt)", Table.Right);
        ("Gated (orig)", Table.Right);
        ("Gated (opt)", Table.Right);
        ("IPC loss (orig)", Table.Right);
        ("IPC loss (opt)", Table.Right);
      ]
  in
  let acc = Array.make 6 0. in
  per_bench ?engine
    ~jobs_of:(fun w ->
      let orig = Workloads.program w and opt = Workloads.optimized w in
      [
        Job.make ~check Config.baseline orig;
        Job.make ~check Config.reuse orig;
        Job.make ~check Config.baseline opt;
        Job.make ~check Config.reuse opt;
      ])
    (fun w r ->
      let bo = r.(0) and ro = r.(1) and bp = r.(2) and rp = r.(3) in
      let vals =
        [|
          Sweep.reduction bo.Outcome.total_power ro.Outcome.total_power;
          Sweep.reduction bp.Outcome.total_power rp.Outcome.total_power;
          100. *. ro.Outcome.stats.Processor.gated_fraction;
          100. *. rp.Outcome.stats.Processor.gated_fraction;
          Sweep.reduction bo.Outcome.stats.Processor.ipc ro.Outcome.stats.Processor.ipc;
          Sweep.reduction bp.Outcome.stats.Processor.ipc rp.Outcome.stats.Processor.ipc;
        |]
      in
      Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) vals;
      Table.add_row t
        (w.Workloads.name :: Array.to_list (Array.map (Table.cell_pct ~digits:1) vals)));
  Table.add_sep t;
  let n = float_of_int (List.length Workloads.all) in
  Table.add_row t
    ("average" :: Array.to_list (Array.map (fun v -> Table.cell_pct ~digits:1 (v /. n)) acc));
  t

let nblt_ablation ?engine ?(check = true) () =
  let t =
    Table.create
      ~title:
        "NBLT ablation (Section 3 text): buffering attempts that end in a revoke, with\n\
         and without the 8-entry non-bufferable loop table (64-entry issue queue)."
      [
        ("Benchmark", Table.Left);
        ("Revoke rate (no NBLT)", Table.Right);
        ("Revoke rate (NBLT 8)", Table.Right);
        ("Gated (no NBLT)", Table.Right);
        ("Gated (NBLT 8)", Table.Right);
      ]
  in
  per_bench ?engine
    ~jobs_of:(fun w ->
      let prog = Workloads.program w in
      [
        Job.make ~check { Config.reuse with Config.nblt_entries = 0 } prog;
        Job.make ~check { Config.reuse with Config.nblt_entries = 8 } prog;
      ])
    (fun w r ->
      let without = r.(0) and with_ = r.(1) in
      let rate (x : Outcome.sim_result) =
        let s = x.Outcome.stats in
        Stats.percent
          (float_of_int s.Processor.revokes)
          (float_of_int (max 1 s.Processor.buffer_attempts))
      in
      Table.add_row t
        [
          w.Workloads.name;
          Table.cell_pct ~digits:1 (rate without);
          Table.cell_pct ~digits:1 (rate with_);
          Table.cell_pct ~digits:1 (100. *. without.Outcome.stats.Processor.gated_fraction);
          Table.cell_pct ~digits:1 (100. *. with_.Outcome.stats.Processor.gated_fraction);
        ]);
  t

let strategy_ablation ?engine ?(check = true) () =
  let t =
    Table.create
      ~title:
        "Buffering-strategy ablation (Section 2.2.1): buffer one iteration (strategy 1)\n\
         vs. fill the queue with whole iterations (strategy 2), 64-entry issue queue."
      [
        ("Benchmark", Table.Left);
        ("Gated (s1)", Table.Right);
        ("Gated (s2)", Table.Right);
        ("IPC (s1)", Table.Right);
        ("IPC (s2)", Table.Right);
      ]
  in
  per_bench ?engine
    ~jobs_of:(fun w ->
      let prog = Workloads.program w in
      [
        Job.make ~check { Config.reuse with Config.buffer_multiple_iterations = false } prog;
        Job.make ~check { Config.reuse with Config.buffer_multiple_iterations = true } prog;
      ])
    (fun w r ->
      let s1 = r.(0) and s2 = r.(1) in
      Table.add_row t
        [
          w.Workloads.name;
          Table.cell_pct ~digits:1 (100. *. s1.Outcome.stats.Processor.gated_fraction);
          Table.cell_pct ~digits:1 (100. *. s2.Outcome.stats.Processor.gated_fraction);
          Table.cell_f ~digits:2 s1.Outcome.stats.Processor.ipc;
          Table.cell_f ~digits:2 s2.Outcome.stats.Processor.ipc;
        ]);
  t

let related_work ?engine ?(check = true) ?(iq_size = 64) () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Related-work comparison (Section 1): fetch-side loop cache and filter cache vs.\n\
            the reusable-instruction issue queue, %d-entry issue queue."
           iq_size)
      [
        ("Benchmark", Table.Left);
        ("icache red. (loop$)", Table.Right);
        ("icache red. (filter$)", Table.Right);
        ("icache red. (reuse)", Table.Right);
        ("total red. (loop$)", Table.Right);
        ("total red. (filter$)", Table.Right);
        ("total red. (reuse)", Table.Right);
        ("IPC loss (filter$)", Table.Right);
        ("IPC loss (reuse)", Table.Right);
      ]
  in
  let acc = Array.make 8 0. in
  per_bench ?engine
    ~jobs_of:(fun w ->
      let prog = Workloads.program w in
      let size cfg = Config.with_iq_size cfg iq_size in
      [
        Job.make ~check (size Config.baseline) prog;
        Job.make ~check (size (Config.loop_cache 64)) prog;
        Job.make ~check (size (Config.filter_cache ())) prog;
        Job.make ~check (size Config.reuse) prog;
      ])
    (fun w r ->
      let base = r.(0) and lc = r.(1) and fc = r.(2) and ru = r.(3) in
      let vals =
        [|
          Sweep.reduction base.Outcome.icache_power lc.Outcome.icache_power;
          Sweep.reduction base.Outcome.icache_power fc.Outcome.icache_power;
          Sweep.reduction base.Outcome.icache_power ru.Outcome.icache_power;
          Sweep.reduction base.Outcome.total_power lc.Outcome.total_power;
          Sweep.reduction base.Outcome.total_power fc.Outcome.total_power;
          Sweep.reduction base.Outcome.total_power ru.Outcome.total_power;
          Sweep.reduction base.Outcome.stats.Processor.ipc fc.Outcome.stats.Processor.ipc;
          Sweep.reduction base.Outcome.stats.Processor.ipc ru.Outcome.stats.Processor.ipc;
        |]
      in
      Array.iteri (fun i v -> acc.(i) <- acc.(i) +. v) vals;
      Table.add_row t
        (w.Workloads.name :: Array.to_list (Array.map (Table.cell_pct ~digits:1) vals)));
  Table.add_sep t;
  let n = float_of_int (List.length Workloads.all) in
  Table.add_row t
    ("average" :: Array.to_list (Array.map (fun v -> Table.cell_pct ~digits:1 (v /. n)) acc));
  t

let predictor_ablation ?engine ?(check = true) () =
  let t =
    Table.create
      ~title:
        "Predictor-sensitivity ablation: gated cycles and overall power reduction of the\n\
         reuse issue queue under bimodal (Table 1) vs. gshare direction prediction."
      [
        ("Benchmark", Table.Left);
        ("Gated (bimod)", Table.Right);
        ("Gated (gshare)", Table.Right);
        ("Power red. (bimod)", Table.Right);
        ("Power red. (gshare)", Table.Right);
      ]
  in
  let gshare_bpred =
    { Riq_branch.Predictor.baseline with
      Riq_branch.Predictor.scheme = Riq_branch.Predictor.Gshare { history_bits = 8 } }
  in
  per_bench ?engine
    ~jobs_of:(fun w ->
      let prog = Workloads.program w in
      let job bpred reuse_on =
        let cfg = if reuse_on then Config.reuse else Config.baseline in
        Job.make ~check { cfg with Config.bpred } prog
      in
      [
        job Config.baseline.Config.bpred false;
        job Config.baseline.Config.bpred true;
        job gshare_bpred false;
        job gshare_bpred true;
      ])
    (fun w r ->
      let bb = r.(0) and br = r.(1) and gb = r.(2) and gr = r.(3) in
      Table.add_row t
        [
          w.Workloads.name;
          Table.cell_pct ~digits:1 (100. *. br.Outcome.stats.Processor.gated_fraction);
          Table.cell_pct ~digits:1 (100. *. gr.Outcome.stats.Processor.gated_fraction);
          Table.cell_pct ~digits:1
            (Sweep.reduction bb.Outcome.total_power br.Outcome.total_power);
          Table.cell_pct ~digits:1
            (Sweep.reduction gb.Outcome.total_power gr.Outcome.total_power);
        ]);
  t

let unroll_ablation ?engine ?(check = true) ?(factor = 4) () =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Unrolling ablation: original vs. %dx-unrolled code on the reuse issue queue\n\
            (32 entries — where grown loop bodies lose capturability)."
           factor)
      [
        ("Benchmark", Table.Left);
        ("Gated (orig)", Table.Right);
        ("Gated (unrolled)", Table.Right);
        ("Power red. (orig)", Table.Right);
        ("Power red. (unrolled)", Table.Right);
        ("IPC (orig)", Table.Right);
        ("IPC (unrolled)", Table.Right);
      ]
  in
  let base_cfg = Config.with_iq_size Config.baseline 32 in
  let reuse_cfg = Config.with_iq_size Config.reuse 32 in
  per_bench ?engine
    ~jobs_of:(fun w ->
      let orig = Riq_loopir.Codegen.compile w.Workloads.ir in
      let unrolled =
        Riq_loopir.Codegen.compile (Riq_loopir.Unroll.unroll_program ~factor w.Workloads.ir)
      in
      [
        Job.make ~check base_cfg orig;
        Job.make ~check reuse_cfg orig;
        Job.make ~check base_cfg unrolled;
        Job.make ~check reuse_cfg unrolled;
      ])
    (fun w r ->
      let bo = r.(0) and ro = r.(1) and bu = r.(2) and ru = r.(3) in
      Table.add_row t
        [
          w.Workloads.name;
          Table.cell_pct ~digits:1 (100. *. ro.Outcome.stats.Processor.gated_fraction);
          Table.cell_pct ~digits:1 (100. *. ru.Outcome.stats.Processor.gated_fraction);
          Table.cell_pct ~digits:1
            (Sweep.reduction bo.Outcome.total_power ro.Outcome.total_power);
          Table.cell_pct ~digits:1
            (Sweep.reduction bu.Outcome.total_power ru.Outcome.total_power);
          Table.cell_f ~digits:2 ro.Outcome.stats.Processor.ipc;
          Table.cell_f ~digits:2 ru.Outcome.stats.Processor.ipc;
        ]);
  t

(* Predicted vs. measured revoke causes: the dataflow-backed static
   analysis names, for every loop whose verdict implies one, the revoke
   cause the hardware should observe; the simulator counts the causes it
   actually raised. Runs in-process (like riq-lint --dynamic) because the
   per-loop cause counters live in [Processor.loop_decisions], not in the
   engine's summary stats. *)
let revoke_causes ?(iq_size = 32) () =
  let cfg = Config.with_iq_size Config.reuse iq_size in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Static revoke-cause prediction vs. per-loop measured causes (IQ %d)."
           iq_size)
      [
        ("Benchmark", Table.Left);
        ("Loop", Table.Left);
        ("Predicted", Table.Left);
        ("inner", Table.Right);
        ("left", Table.Right);
        ("ovfl", Table.Right);
        ("mispred", Table.Right);
        ("Match", Table.Left);
      ]
  in
  List.iter
    (fun w ->
      let program = Workloads.program w in
      let report = Riq_analysis.Bufferability.analyze_config cfg program in
      let p =
        match Runner.simulate (Job.make cfg program) with
        | Ok (p, _) -> p
        | Error e -> failwith (w.Workloads.name ^ ": " ^ Outcome.error_to_string e)
      in
      List.iter
        (fun d ->
          let predicted =
            Option.bind
              (List.find_opt
                 (fun l -> l.Riq_analysis.Bufferability.tail = d.Processor.ld_tail)
                 report.Riq_analysis.Bufferability.loops)
              (fun l -> l.Riq_analysis.Bufferability.predicted_cause)
          in
          let dominant =
            List.fold_left
              (fun acc c ->
                let n = Processor.revokes d c in
                match acc with
                | Some (_, m) when m >= n -> acc
                | _ -> if n > 0 then Some (c, n) else acc)
              None Reuse_state.revoke_causes
          in
          let matches =
            match (predicted, dominant) with
            | None, _ -> "-"
            | Some _, None -> "no revokes"
            | Some c, Some (dc, _) -> if c = dc then "yes" else "NO"
          in
          let counts =
            List.map (fun c -> string_of_int (Processor.revokes d c)) Reuse_state.revoke_causes
          in
          Table.add_row t
            ([
               w.Workloads.name;
               Printf.sprintf "%08x..%08x" d.Processor.ld_head d.Processor.ld_tail;
               (match predicted with
               | Some c -> Reuse_state.cause_to_string c
               | None -> "-");
             ]
            @ counts @ [ matches ]))
        (Processor.loop_decisions p))
    Workloads.all;
  t

open Riq_util
open Riq_ooo
open Riq_core
open Riq_workloads
open Riq_exp

type cell = { baseline : Outcome.sim_result; reuse : Outcome.sim_result }

let reduction base with_ = if base = 0. then 0. else 100. *. (1. -. (with_ /. base))

type t = {
  sizes : int list;
  benchmarks : Workloads.t list;
  cells : (string * (int * cell) list) list;
}

let default_sizes = [ 32; 64; 128; 256 ]

(* The sweep is two jobs (baseline, reuse) per benchmark x size, submitted
   as one batch so the engine can parallelize and cache across all of it.
   Job order is fixed (benchmark-major, then size, then baseline before
   reuse), which makes the result array trivially re-assemblable and the
   output independent of completion order. *)
let jobs ?(sizes = default_sizes) ?(benchmarks = Workloads.all) ?(check = true) () =
  Array.of_list
    (List.concat_map
       (fun w ->
         let program = Workloads.program w in
         List.concat_map
           (fun size ->
             [
               Job.make ~check (Config.with_iq_size Config.baseline size) program;
               Job.make ~check (Config.with_iq_size Config.reuse size) program;
             ])
           sizes)
       benchmarks)

let run ?engine ?(sizes = default_sizes) ?(benchmarks = Workloads.all) ?(check = true) () =
  let engine = match engine with Some e -> e | None -> Engine.create () in
  let results = Engine.run_exn engine (jobs ~sizes ~benchmarks ~check ()) in
  let idx = ref 0 in
  let next () =
    let r = results.(!idx) in
    incr idx;
    r
  in
  let cells =
    List.map
      (fun w ->
        let per_size =
          List.map
            (fun size ->
              let baseline = next () in
              let reuse = next () in
              (size, { baseline; reuse }))
            sizes
        in
        (w.Workloads.name, per_size))
      benchmarks
  in
  { sizes; benchmarks; cells }

let cell t ~bench ~size =
  match List.assoc_opt bench t.cells with
  | None -> invalid_arg ("Sweep.cell: unknown benchmark " ^ bench)
  | Some per_size -> (
      match List.assoc_opt size per_size with
      | None -> invalid_arg (Printf.sprintf "Sweep.cell: size %d not swept" size)
      | Some c -> c)

(* ------------------------------------------------------------------ *)
(* Machine-readable export                                             *)
(* ------------------------------------------------------------------ *)

(* The per-cell stats rendering is shared with the run report so the two
   exports stay field-compatible. *)
let stats_json = Report.stats_json

let insns_per_sec (r : Outcome.sim_result) =
  if r.Outcome.sim_seconds > 0. then
    float_of_int r.Outcome.stats.Processor.committed /. r.Outcome.sim_seconds
  else 0.

let result_json (r : Outcome.sim_result) =
  Json.Obj
    [
      ("stats", stats_json r.Outcome.stats);
      ("sim_seconds", Json.Float r.Outcome.sim_seconds);
      ("sim_insns_per_sec", Json.Float (insns_per_sec r));
      ( "power",
        Json.Obj
          [
            ("icache", Json.Float r.Outcome.icache_power);
            ("bpred", Json.Float r.Outcome.bpred_power);
            ("iq", Json.Float r.Outcome.iq_power);
            ("overhead", Json.Float r.Outcome.overhead_power);
            ("total", Json.Float r.Outcome.total_power);
          ] );
      ( "arch_ok",
        match r.Outcome.arch_ok with None -> Json.Null | Some b -> Json.Bool b );
    ]

let engine_json engine =
  let s = Engine.stats engine in
  let js = Engine.job_seconds engine in
  (* A fully warm run executes nothing; its quantiles are absent, not
     zero. Null-marked values keep the keys (consumers needn't branch on
     shape) while staying unmistakable for a measured 0-second job. *)
  let no_samples = Array.length js = 0 in
  let mean =
    if no_samples then 0.
    else Array.fold_left ( +. ) 0. js /. float_of_int (Array.length js)
  in
  let stat v = if no_samples then Json.Null else Json.Float v in
  let q p = Stats.quantile p js in
  Json.Obj
    ([
       ("backend", Json.String (Engine.backend_name engine));
       ("workers", Json.Int (Engine.workers engine));
       ("jobs", Json.Int s.Engine.jobs);
       ("cache_hits", Json.Int s.Engine.cache_hits);
       ("cache_misses", Json.Int (s.Engine.jobs - s.Engine.cache_hits - s.Engine.deduped));
       ("deduped", Json.Int s.Engine.deduped);
       ("executed", Json.Int s.Engine.executed);
       ("failures", Json.Int s.Engine.failures);
       ("retries", Json.Int s.Engine.retries);
       ("timeouts", Json.Int s.Engine.timeouts);
       ("wall_seconds", Json.Float s.Engine.wall_seconds);
       ("busy_seconds", Json.Float s.Engine.busy_seconds);
       ("utilization", Json.Float (Engine.utilization engine));
       ( "job_seconds",
         Json.Obj
           [
             ("count", Json.Int (Array.length js));
             ("mean", stat mean);
             ("p50", stat (q 0.5));
             ("p95", stat (q 0.95));
             ("max", stat (q 1.0));
           ] );
     ]
    (* A remote backend appends its "service" block here: client-side
       provenance (remote hits / executed / batched) and the daemon's
       queue-depth, batching and store-eviction counters. *)
    @ Engine.telemetry engine)

let to_json ?engine t =
  let cells =
    List.concat_map
      (fun (bench, per_size) ->
        List.map
          (fun (size, c) ->
            Json.Obj
              [
                ("benchmark", Json.String bench);
                ("iq_size", Json.Int size);
                ("baseline", result_json c.baseline);
                ("reuse", result_json c.reuse);
                ( "power_reduction_pct",
                  Json.Float
                    (reduction c.baseline.Outcome.total_power c.reuse.Outcome.total_power) );
                ( "ipc_degradation_pct",
                  Json.Float
                    (reduction c.baseline.Outcome.stats.Processor.ipc
                       c.reuse.Outcome.stats.Processor.ipc) );
                ( "gated_pct",
                  Json.Float (100. *. c.reuse.Outcome.stats.Processor.gated_fraction) );
              ])
          per_size)
      t.cells
  in
  (* Aggregate simulator throughput over every run in the sweep — the
     headline number the perf gate tracks across PRs. *)
  let committed, seconds =
    List.fold_left
      (fun acc (_, per_size) ->
        List.fold_left
          (fun (i, s) (_, c) ->
            ( i + c.baseline.Outcome.stats.Processor.committed
              + c.reuse.Outcome.stats.Processor.committed,
              s +. c.baseline.Outcome.sim_seconds +. c.reuse.Outcome.sim_seconds ))
          acc per_size)
      (0, 0.) t.cells
  in
  let throughput =
    Json.Obj
      [
        ("committed_insns", Json.Int committed);
        ("sim_seconds", Json.Float seconds);
        ( "sim_insns_per_sec",
          Json.Float (if seconds > 0. then float_of_int committed /. seconds else 0.)
        );
      ]
  in
  Json.Obj
    (("schema", Json.String "riq-sweep/3")
    :: ("revision", Json.String Revision.stamp)
    :: ("sizes", Json.List (List.map (fun s -> Json.Int s) t.sizes))
    :: ( "benchmarks",
         Json.List (List.map (fun w -> Json.String w.Workloads.name) t.benchmarks) )
    :: ("throughput", throughput)
    :: ("cells", Json.List cells)
    ::
    (match engine with
    | None -> []
    | Some e -> [ ("engine", engine_json e) ]))

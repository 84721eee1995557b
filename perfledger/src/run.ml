(* The four workloads. Each run sets up several times (reporting the
   median), then runs passes until --seconds have elapsed, checking every
   op. An untraced run reports the end-to-end metrics; a traced run
   alternates tracer-off and tracer-on passes (the ratio is the tracing
   overhead), adds the leg runs and layer probes, and reports the
   per-layer metrics plus a Perfetto trace. *)

open Riq_util
open Riq_core
open Riq_exp
open Riq_workloads
module Tracer = Riq_obs.Tracer
module Metrics = Riq_obs.Metrics
module Svc = Riq_svc

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  golden : Golden.t;
  work : string; (* scratch directory, removed at the end *)
  tracer : Tracer.t; (* bench-side spans; a ring when tracing *)
  null : Tracer.t;
  tally : Core_loop.tally;
  mutable pass_times : float array; (* untraced passes *)
  mutable peak_rss_mb : float; (* after set-up and the first pass *)
  mutable compile_times : float list; (* one per set-up *)
  values : (string, float) Hashtbl.t;
}

let set ctx name v = Hashtbl.replace ctx.values name v
let get ctx name = Hashtbl.find ctx.values name
let op ctx label verdict = Core_loop.record ctx.tally label verdict

(* Building the workload's programs from source, inside each set-up. *)
let compiling ctx f =
  let dt, r = Measure.timed f in
  ctx.compile_times <- dt :: ctx.compile_times;
  r

(* What one op contributes to the core and model metrics. *)
type record = {
  kernel : string; (* "fuzz" for generated programs *)
  config : string;
  result : Outcome.sim_result;
  executed : bool; (* simulated for this op, not read from a store *)
  minor_words : float; (* 0 when the op ran in another process *)
}

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l
let isum f l = float_of_int (List.fold_left (fun a x -> a + f x) 0 l)
let st r = r.result.Outcome.stats
let cpu r = r.result.Outcome.sim_seconds
let micros f =
  let dt, r = Measure.timed f in
  (dt *. 1e6, r)

(* ------------------------------------------------------------------ *)
(* Set-up and the pass loop                                            *)
(* ------------------------------------------------------------------ *)

let setups = 9

(* Runs [setup] [n] times; returns the median seconds and the last
   result. [discard] releases every earlier result, untimed. *)
let repeat_setup ?(n = setups) ?(discard = ignore) setup =
  let rec go i times =
    let dt, r = Measure.timed setup in
    if i + 1 = n then (Measure.median (Array.of_list (dt :: times)), r)
    else begin
      discard r;
      go (i + 1) (dt :: times)
    end
  in
  go 0 []

type 'a pass = { seconds : float; traced : bool; data : 'a }

(* [f ~pass ~tracer] runs one pass and returns its own timing, so each
   workload times exactly the part a user waits on. Peak memory is read
   after the first pass: later passes only add to the heap's
   fragmentation, and how many of them fit depends on the host's speed. *)
let run_passes ?other_pid ctx f =
  let start = Measure.wall () in
  let min_passes = if ctx.trace then 2 else 1 in
  let rec go i acc =
    let traced = ctx.trace && i mod 2 = 1 in
    let tracer = if traced then ctx.tracer else ctx.null in
    let seconds, data =
      Measure.span tracer "pass" ~args:[ ("pass", Tracer.Int i) ] (fun () -> f ~pass:i ~tracer)
    in
    if i = 0 then
      ctx.peak_rss_mb <-
        Measure.peak_rss_mb 0 +. Option.fold ~none:0. ~some:Measure.peak_rss_mb other_pid;
    Gc.full_major ();
    let acc = { seconds; traced; data } :: acc in
    if i + 1 >= min_passes && Measure.wall () -. start >= ctx.seconds then List.rev acc
    else go (i + 1) acc
  in
  go 0 []

(* A pass's time is the lower quartile of the run's pass times. On a
   shared host, interference from other tenants only ever adds time and
   arrives in bursts of seconds to minutes; the lower quartile follows
   the code's own speed where the median follows the neighbours'. *)
let pass_estimate times = Stats.quantile 0.25 times

let report_e2e ctx ~setup_s ps =
  let times traced =
    Array.of_list (List.filter_map (fun p -> if p.traced = traced then Some p.seconds else None) ps)
  in
  ctx.pass_times <- times false;
  set ctx "setup_s" setup_s;
  set ctx "workloads.compile_s" (Measure.median (Array.of_list ctx.compile_times));
  set ctx "pass_s" (pass_estimate ctx.pass_times);
  set ctx "peak_rss_mb" ctx.peak_rss_mb;
  if ctx.trace then
    set ctx "trace.overhead_share"
      ((pass_estimate (times true) /. pass_estimate ctx.pass_times) -. 1.)

(* ------------------------------------------------------------------ *)
(* Layer metrics shared by every workload                              *)
(* ------------------------------------------------------------------ *)

(* Each metric's median over the passes' rows. *)
let set_medians ctx rows =
  match rows with
  | [] -> ()
  | first :: _ ->
      List.iter
        (fun (name, _) ->
          set ctx name (Measure.median (Array.of_list (List.map (List.assoc name) rows))))
        first

let model_of rs =
  let cycles = isum (fun r -> (st r).Processor.cycles) rs in
  let committed = isum (fun r -> (st r).committed) rs in
  let reuse = List.filter (fun r -> r.config = "reuse") rs in
  let base = List.filter (fun r -> r.config = "baseline") rs in
  let power l = sum (fun r -> r.result.Outcome.total_power) l in
  [
    ("model.sim_cycles", cycles);
    ("model.committed", committed);
    ("model.ipc", Stats.ratio committed cycles);
    ("model.icache_accesses", isum (fun r -> (st r).icache_accesses) rs);
    ("model.dcache_misses", isum (fun r -> (st r).dcache_misses) rs);
    ("model.mispredicts", isum (fun r -> (st r).mispredicts) rs);
    ("model.gated_cycle_share", Stats.ratio (isum (fun r -> (st r).gated_cycles) rs) cycles);
    ( "model.reuse_commit_share",
      Stats.ratio
        (isum (fun r -> (st r).reuse_committed) reuse)
        (isum (fun r -> (st r).committed) reuse) );
    ("model.power_reduction_pct", 100. *. (1. -. Stats.ratio (power reuse) (power base)));
  ]

(* Core throughput over the ops simulated in a pass. *)
let core_of rs =
  let ex = List.filter (fun r -> r.executed) rs in
  let committed = isum (fun r -> (st r).Processor.committed) ex in
  let cycles = isum (fun r -> (st r).cycles) ex in
  [
    ("core.run_cpu_s", sum cpu ex);
    ("core.minsns_per_cpu_s", Stats.ratio committed (sum cpu ex) /. 1e6);
    ("core.ns_per_sim_cycle", Stats.ratio (sum cpu ex) cycles *. 1e9);
    ("core.minor_words_per_insn", Stats.ratio (sum (fun r -> r.minor_words) ex) committed);
    ("core.ffwd_iterations", isum (fun r -> (st r).ffwd_iterations) ex);
    ("core.skipped_cycle_share", Stats.ratio (isum (fun r -> (st r).skipped_cycles) ex) cycles);
  ]

(* Per (kernel, config): CPU seconds summed over the IQ sizes run. *)
let cells_of rs =
  List.concat_map
    (fun k ->
      List.map
        (fun c ->
          ( Spec.cell_cpu_metric k c,
            sum cpu (List.filter (fun r -> r.executed && r.kernel = k && r.config = c) rs) ))
        Spec.configs)
    Spec.kernels

let quantiles ctx prefix a =
  set ctx (prefix ^ "_p50") (Stats.quantile 0.5 a);
  set ctx (prefix ^ "_p90") (Stats.quantile 0.9 a)

let core_layer ctx ~cells passes =
  set_medians ctx (List.map model_of passes);
  set_medians ctx (List.map core_of passes);
  set_medians ctx (List.map cells_of cells);
  let executed rs = List.map cpu (List.filter (fun r -> r.executed) rs) in
  quantiles ctx "core.job_s" (Array.of_list (List.concat_map executed passes))

(* Layer probes on one pass's jobs: Processor.create, the interpreter,
   Job.fingerprint and the Exp.Cache round trip, each timed from
   outside; then the unit.* timings. *)
let probe ctx (jobs : Job.t list) (outcomes : Outcome.t list) =
  let span name f = Measure.span ctx.tracer name f in
  (* Microseconds of one spanned call, with its result. *)
  let timed name f = micros (fun () -> span name f) in
  let create (j : Job.t) =
    fst (timed "Processor.create" (fun () -> Processor.create j.cfg j.program))
  in
  set ctx "core.create_s" (sum create jobs /. 1e6);
  let programs =
    List.fold_left
      (fun acc (j : Job.t) -> if List.memq j.program acc then acc else j.program :: acc)
      [] jobs
  in
  let c0 = Measure.cpu () in
  let insns =
    List.fold_left
      (fun n p ->
        n + span "Machine.run" (fun () -> (Core_loop.reference p).Riq_interp.Machine.instructions))
      0 programs
  in
  let interp = Stats.ratio (float_of_int insns) (Measure.cpu () -. c0) /. 1e6 in
  set ctx "interp.minsns_per_cpu_s" interp;
  set ctx "core.vs_interp" (Stats.ratio (get ctx "core.minsns_per_cpu_s") interp);
  let median_us l = Measure.median (Array.of_list (List.map fst l)) in
  let fps = List.map (fun j -> timed "Job.fingerprint" (fun () -> Job.fingerprint j)) jobs in
  set ctx "job.fingerprint_us" (median_us fps);
  let dir = Filename.concat ctx.work "probe-cache" in
  let cache = Cache.open_ ~root:dir () in
  let keyed = List.combine (List.map snd fps) outcomes in
  let stores =
    List.map (fun (fp, o) -> timed "Cache.store" (fun () -> Cache.store cache fp o)) keyed
  in
  let finds =
    List.map
      (fun (fp, o) ->
        let (_, found) as r = timed "Cache.find" (fun () -> Cache.find cache fp) in
        op ctx ("cache/" ^ fp)
          (if Option.map Outcome.zero_timing found = Some (Outcome.zero_timing o) then Ok ()
           else Error "Cache.find did not return what Cache.store wrote");
        r)
      keyed
  in
  set ctx "cache.store_us" (median_us stores);
  set ctx "cache.find_us" (median_us finds);
  Measure.rm_rf dir;
  List.iter (fun (name, v) -> set ctx name v) (span "unit" Units.all)

(* ------------------------------------------------------------------ *)
(* core-tight, core-large: in-process Processor.create + run           *)
(* ------------------------------------------------------------------ *)

let core ctx =
  let cells = Inputs.core_cells ctx.workload ~seed:ctx.seed in
  let kernels =
    List.sort_uniq compare (Array.to_list (Array.map (fun (c : Inputs.cell) -> c.kernel) cells))
  in
  let setup_s, (programs, refs) =
    repeat_setup (fun () ->
        let programs =
          compiling ctx (fun () ->
              List.map (fun k -> (k, Workloads.program (Workloads.find k))) kernels)
        in
        (programs, List.map (fun (k, p) -> (k, Core_loop.reference p)) programs))
  in
  let simulate ?(tweak = Fun.id) ~tracer (c : Inputs.cell) =
    Measure.span tracer "op" ~args:[ ("cell", Tracer.Str c.key) ] (fun () ->
        let program = List.assoc c.kernel programs in
        let ((s, _) as sim) = Core_loop.simulate ~tracer (tweak c.cfg) program in
        let reference = List.assoc c.kernel refs in
        op ctx c.key
          (Measure.span tracer "check" (fun () ->
               Core_loop.check ~golden:ctx.golden ~key:c.key ~reference sim));
        let { Inputs.kernel; config; _ } = c in
        { kernel; config; result = s.result; executed = true; minor_words = s.minor_words })
  in
  (* The first pass runs the cells in their canonical order, so the peak
     RSS read after it (which depends on the order the heap grew in) is
     the same for every seed. *)
  let canonical = Inputs.core_grid ctx.workload in
  let ps =
    run_passes ctx (fun ~pass ~tracer ->
        let order = if pass = 0 then canonical else cells in
        Measure.timed (fun () -> Array.to_list (Array.map (simulate ~tracer) order)))
  in
  report_e2e ctx ~setup_s ps;
  if ctx.trace then begin
    let passes = List.map (fun p -> p.data) ps in
    core_layer ctx ~cells:passes passes;
    (* Fast-path legs: each cell runs with both fast paths on, with loop
       fast-forward off and with skip-ahead off, back to back, so host
       drift cancels. A share is the CPU the fast path saves. *)
    let leg tweak c = cpu (simulate ~tweak ~tracer:ctx.tracer c) in
    let on, ffwd_off, skip_off =
      Measure.span ctx.tracer "fast-path legs" (fun () ->
          Array.fold_left
            (fun (a, b, d) c ->
              let on = leg Fun.id c in
              let ffwd_off = leg (fun cfg -> { cfg with Riq_ooo.Config.loop_ffwd = false }) c in
              let skip_off = leg (fun cfg -> { cfg with Riq_ooo.Config.skip_ahead = false }) c in
              (a +. on, b +. ffwd_off, d +. skip_off))
            (0., 0., 0.) cells)
    in
    set ctx "core.ffwd_saved_share" (1. -. (on /. ffwd_off));
    set ctx "core.skip_saved_share" (1. -. (on /. skip_off));
    let job (c : Inputs.cell) = Job.make ~check:true c.cfg (List.assoc c.kernel programs) in
    probe ctx
      (Array.to_list (Array.map job cells))
      (List.map (fun r -> Ok { r.result with Outcome.arch_ok = Some true }) (List.hd passes))
  end

(* ------------------------------------------------------------------ *)
(* sweep-cold-j2: the sweep batch through a 2-worker engine            *)
(* ------------------------------------------------------------------ *)

let workers = 2

(* Checks every outcome and keeps what the core and model metrics need.
   [executed] says whether the paper cells were simulated for this batch;
   generated programs always are. *)
let records_of ctx labelled (outcomes : Outcome.t array) ~executed =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun i o ->
            let label, (cell : Inputs.cell option), (job : Job.t) = labelled.(i) in
            let key = Option.map (fun (c : Inputs.cell) -> c.key) cell in
            op ctx label (Core_loop.check_outcome ~golden:ctx.golden ~checked:job.check ?key o);
            match (o, cell) with
            | Ok result, Some { kernel; config; _ } ->
                [ { kernel; config; result; executed; minor_words = 0. } ]
            | Ok result, None ->
                let config = if job.cfg.Riq_ooo.Config.reuse_enabled then "reuse" else "baseline" in
                [ { kernel = "fuzz"; config; result; executed = true; minor_words = 0. } ]
            | Error _, _ -> [])
          outcomes))

let label_cells cj = Array.map (fun ((c : Inputs.cell), j) -> (c.key, Some c, j)) cj
let jobs_of labelled = Array.map (fun (_, _, j) -> j) labelled

let engine_run ~tracer engine labelled =
  Measure.span tracer "Engine.run" (fun () -> Engine.run engine (jobs_of labelled))

let sweep ctx =
  let setup_s, cj =
    repeat_setup (fun () -> compiling ctx (fun () -> Inputs.sweep_jobs ~seed:ctx.seed))
  in
  let run_sweep ~tracer ~name labelled =
    let dir = Filename.concat ctx.work name in
    let seconds, (engine, outcomes) =
      Measure.timed (fun () ->
          let engine = Engine.create ~workers ~cache:(Cache.open_ ~root:dir ()) () in
          (engine, engine_run ~tracer engine labelled))
    in
    Measure.rm_rf dir;
    (seconds, (engine, records_of ctx labelled outcomes ~executed:true, outcomes))
  in
  let labelled = label_cells cj in
  let ps =
    run_passes ctx (fun ~pass ~tracer ->
        run_sweep ~tracer ~name:(Printf.sprintf "sweep-%d" pass) labelled)
  in
  report_e2e ctx ~setup_s ps;
  if ctx.trace then begin
    let passes = List.map (fun p -> p.data) ps in
    let engines = List.map (fun (e, _, _) -> e) passes in
    let records = List.map (fun (_, rs, _) -> rs) passes in
    core_layer ctx ~cells:records records;
    set_medians ctx
      (List.map
         (fun e ->
           let s = Engine.stats e in
           [
             ("engine.busy_s", s.Engine.busy_seconds);
             ("engine.utilization", Engine.utilization e);
             ("engine.idle_s", (float_of_int workers *. s.wall_seconds) -. s.busy_seconds);
           ])
         engines);
    quantiles ctx "engine.job_s" (Array.concat (List.map Engine.job_seconds engines));
    set ctx "engine.retries" (isum (fun e -> (Engine.stats e).retries) engines);
    set ctx "engine.timeouts" (isum (fun e -> (Engine.stats e).timeouts) engines);
    (* Check-off leg: the same batch without the interpreter leg. *)
    let unchecked = Array.map (fun (l, c, j) -> (l, c, { j with Job.check = false })) labelled in
    let _, (e, _, _) = run_sweep ~tracer:ctx.tracer ~name:"sweep-check-off" unchecked in
    set ctx "engine.check_share" (1. -. ((Engine.stats e).busy_seconds /. get ctx "engine.busy_s"));
    let _, _, outcomes = List.hd passes in
    probe ctx (Array.to_list (Array.map snd cj)) (Array.to_list outcomes)
  end

(* ------------------------------------------------------------------ *)
(* serve-mixed: a forked daemon, one client, warm store + fresh jobs   *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; address : Svc.Protocol.address }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Measure.wall () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Measure.wall () < deadline ->
        ignore (Unix.select [] [] [] 0.02);
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let start_daemon ctx i =
  let dir = Filename.concat ctx.work (Printf.sprintf "serve-%d" i) in
  Measure.mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* The bench's stdout carries its result line alone. *)
      Unix.dup2 Unix.stderr Unix.stdout;
      Riq_obs.Log.set_level Riq_obs.Log.Warn;
      (try
         let metrics = Metrics.create () in
         let store = Svc.Store.open_ ~root:(Filename.concat dir "store") ~metrics () in
         Svc.Server.serve
           (Svc.Server.config ~workers ~timeout:(Some 120.) ~metrics
              ~address:(Svc.Protocol.Unix_socket sock) store)
       with e -> prerr_endline ("ledger: daemon: " ^ Printexc.to_string e));
      Unix._exit 0
  | pid ->
      let d = { pid; address = Svc.Protocol.Unix_socket sock } in
      let deadline = Measure.wall () +. 10. in
      while not (Sys.file_exists sock) do
        if Measure.wall () > deadline then begin
          stop_daemon d;
          failwith "the daemon did not come up"
        end;
        ignore (Unix.select [] [] [] 0.01)
      done;
      d

(* Each set-up simulates the sweep batch, so serve-mixed sets up fewer
   times than the others. *)
let serve_setups = 3

let connect ?metrics ?trace d = Svc.Client.connect ~request_timeout:60. ?metrics ?trace d.address

(* A counter summed over the series whose labels include [labels]. *)
let counter ?(labels = []) snap name =
  List.fold_left
    (fun acc s ->
      match s.Metrics.s_value with
      | Metrics.Counter_sample v
        when s.Metrics.s_name = name
             && List.for_all (fun l -> List.mem l s.Metrics.s_labels) labels ->
          acc + v
      | _ -> acc)
    0 snap

let histogram_quantile snap name q =
  List.fold_left
    (fun acc s ->
      match s.Metrics.s_value with
      | Metrics.Histogram_sample { bounds; counts; _ } when s.Metrics.s_name = name ->
          Metrics.histogram_quantile q ~bounds ~counts
      | _ -> acc)
    0. snap

(* Durations, in seconds, of the trace events called [name]. *)
let span_seconds events name =
  Array.of_list
    (List.filter_map
       (fun e ->
         if Json.member "name" e <> Some (Json.String name) then None
         else
           Option.map
             (fun us -> float_of_int us /. 1e6)
             (Option.bind (Json.member "dur" e) Json.to_int))
       events)

let serve ctx daemons =
  (* Set-up: compile, fork a daemon on a fresh store, connect and fill
     the store with the sweep batch. *)
  let setup_s, (cj, fill, d) =
    repeat_setup ~n:serve_setups
      ~discard:(fun (_, _, d) -> stop_daemon d)
      (fun () ->
        let cj = compiling ctx (fun () -> Inputs.sweep_jobs ~seed:ctx.seed) in
        let d = start_daemon ctx (List.length !daemons) in
        daemons := d :: !daemons;
        let client = connect d in
        let engine = Engine.create ~backend:(Svc.Client.backend client) () in
        let fill = Engine.run engine (Array.map snd cj) in
        Svc.Client.close client;
        (cj, fill, d))
  in
  let fill_records = records_of ctx (label_cells cj) fill ~executed:true in
  let registry = Metrics.create () in
  let plain = connect ~metrics:registry d in
  let traced = if ctx.trace then Some (connect ~metrics:registry ~trace:ctx.tracer d) else None in
  let probe_client = connect d in
  let scrape () =
    Result.get_ok
      (Measure.span ctx.tracer "Client.server_metrics" (fun () ->
           Svc.Client.server_metrics probe_client))
  in
  let before = if ctx.trace then scrape () else [] in
  let fill_events, cursor =
    if ctx.trace then Result.get_ok (Svc.Client.server_trace probe_client) else ([], 0)
  in
  let ps =
    run_passes ~other_pid:d.pid ctx (fun ~pass ~tracer ->
        let client = match traced with Some c when tracer == ctx.tracer -> c | _ -> plain in
        let programs =
          Inputs.fuzz_programs ~excluded:ctx.golden.fuzz_excluded ~seed:ctx.seed ~pass
        in
        let fresh = Inputs.fuzz_jobs programs in
        let fresh = Array.of_list (List.map (fun (l, j) -> (l, None, j)) fresh) in
        let labelled = Array.append (label_cells cj) fresh in
        let seconds, (engine, outcomes) =
          Measure.timed (fun () ->
              let engine = Engine.create ~backend:(Svc.Client.backend client) () in
              (engine, engine_run ~tracer engine labelled))
        in
        (* The sweep-batch jobs are store reads; the fuzz jobs execute. *)
        (seconds, (engine, records_of ctx labelled outcomes ~executed:false, labelled, outcomes)))
  in
  report_e2e ctx ~setup_s ps;
  let events =
    if not ctx.trace then []
    else begin
      let n = float_of_int (List.length ps) in
      let passes = List.map (fun p -> p.data) ps in
      let engines = List.map (fun (e, _, _, _) -> e) passes in
      core_layer ctx ~cells:[ fill_records ] (List.map (fun (_, rs, _, _) -> rs) passes);
      (* Store hits report 0 s; the rest are the daemon-reported seconds
         of the executed jobs. *)
      let executed =
        Array.of_list
          (List.filter (fun s -> s > 0.)
             (List.concat_map (fun e -> Array.to_list (Engine.job_seconds e)) engines))
      in
      let busy = Array.fold_left ( +. ) 0. executed /. n in
      let capacity = float_of_int workers *. get ctx "pass_s" in
      set ctx "engine.busy_s" busy;
      set ctx "engine.utilization" (busy /. capacity);
      set ctx "engine.idle_s" (capacity -. busy);
      quantiles ctx "engine.job_s" executed;
      set ctx "engine.retries" (isum (fun e -> (Engine.stats e).retries) engines);
      set ctx "engine.timeouts" (isum (fun e -> (Engine.stats e).timeouts) engines);
      let after = scrape () in
      let delta ?labels name =
        float_of_int (counter ?labels after name - counter ?labels before name)
      in
      let hits = delta ~labels:[ ("result", "hit") ] "store_reads_total" in
      let misses = delta ~labels:[ ("result", "miss") ] "store_reads_total" in
      set ctx "store.hit_ratio" (Stats.ratio hits (hits +. misses));
      set ctx "store.writes_per_pass" (delta "store_writes_total" /. n);
      set ctx "serve.batched" (delta "serve_batched_total");
      let client = Metrics.snapshot registry in
      let requests = float_of_int (counter client "client_requests_total") in
      set ctx "client.requests_per_pass" (requests /. n);
      set ctx "client.request_s_p50" (histogram_quantile client "client_request_seconds" 0.5);
      set ctx "client.request_s_p90" (histogram_quantile client "client_request_seconds" 0.9);
      set ctx "client.reconnects" (float_of_int (counter client "client_reconnects_total"));
      let rtt () =
        micros (fun () ->
            Measure.span ctx.tracer "Client.server_stats" (fun () ->
                Svc.Client.server_stats probe_client))
      in
      set ctx "client.rtt_us" (Measure.median (Array.init 20 (fun _ -> fst (rtt ()))));
      let pass_events =
        fst
          (Result.get_ok
             (Measure.span ctx.tracer "Client.server_trace" (fun () ->
                  Svc.Client.server_trace ~since:cursor probe_client)))
      in
      quantiles ctx "serve.queue_wait_s" (span_seconds pass_events "queue-wait");
      set ctx "serve.simulate_s_p50" (Stats.quantile 0.5 (span_seconds pass_events "simulate"));
      set ctx "serve.daemon_rss_mb" (Measure.peak_rss_mb d.pid);
      let _, _, labelled, outcomes = List.hd passes in
      probe ctx (Array.to_list (jobs_of labelled)) (Array.to_list outcomes);
      fill_events @ pass_events
    end
  in
  List.iter Svc.Client.close (probe_client :: plain :: Option.to_list traced);
  events

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list; (* name, value, unit *)
  failures : (string * string) list;
  pass_times : float array;
}

let run ~golden ~workload ~seed ~seconds ~trace ~work ~trace_out =
  if not (List.mem workload Spec.workloads) then invalid_arg ("unknown workload " ^ workload);
  let tracer = if trace then Tracer.ring ~capacity:65536 () else Tracer.null () in
  Tracer.set_pid tracer (Unix.getpid ());
  if trace then Tracer.set_process_name tracer "riq-ledger";
  let ctx =
    {
      workload;
      seed;
      seconds;
      trace;
      golden;
      work;
      tracer;
      null = Tracer.null ();
      tally = Core_loop.tally ();
      pass_times = [||];
      peak_rss_mb = 0.;
      compile_times = [];
      values = Hashtbl.create 128;
    }
  in
  let names = List.map fst (if trace then Spec.per_layer else Spec.end_to_end) in
  (* A layer this workload does not exercise reads 0. *)
  if trace then List.iter (fun n -> set ctx n 0.) names;
  Measure.mkdir_p work;
  let daemons = ref [] in
  let daemon_events =
    Fun.protect
      ~finally:(fun () ->
        List.iter stop_daemon !daemons;
        Measure.rm_rf work)
      (fun () ->
        match workload with
        | "core-tight" | "core-large" ->
            core ctx;
            []
        | "sweep-cold-j2" ->
            sweep ctx;
            []
        | _ -> serve ctx daemons)
  in
  if trace then begin
    let bench_events = match Tracer.to_json tracer with Json.List l -> l | j -> [ j ] in
    Measure.mkdir_p (Filename.dirname trace_out);
    Json.to_file trace_out (Json.List (bench_events @ daemon_events))
  end;
  let failed = List.length ctx.tally.failures in
  {
    correct = failed = 0;
    attempted = ctx.tally.attempted;
    failed;
    metrics = List.map (fun n -> (n, get ctx n, Spec.unit_of n)) names;
    failures = List.rev ctx.tally.failures;
    pass_times = ctx.pass_times;
  }

(* riq-sim: command-line driver for the simulator and the experiments.

   Subcommands:
     run    — simulate one benchmark (or an assembly file) on a chosen
              configuration and print statistics
     bench  — list the built-in benchmarks
     sweep  — run the paper's issue-queue sweep through the experiment
              engine (parallel workers, content-addressed result cache,
              or a remote serve daemon)
     fig    — regenerate one of the paper's tables/figures
     serve  — daemon: accept jobs over a socket, batch duplicates, run
              them on resident workers, answer repeats from the shared
              result store
     top    — live dashboard over a serve daemon's metrics (or --prom /
              --json one-shot scrapes)
     disasm — print the compiled RIQ32 code of a benchmark *)

open Cmdliner
open Riq_util
open Riq_asm
open Riq_power
open Riq_ooo
open Riq_core
open Riq_workloads
open Riq_harness

let find_workload name =
  try Workloads.find name
  with Not_found ->
    failwith
      (Printf.sprintf "unknown benchmark %S (valid: %s)" name
         (String.concat ", "
            (List.map (fun w -> w.Workloads.name) (Workloads.all @ Workloads.extras))))

let load_program bench file optimized =
  match (bench, file) with
  | Some name, None ->
      let w = find_workload name in
      if optimized then Workloads.optimized w else Workloads.program w
  | None, Some path ->
      let ic = open_in path in
      let len = in_channel_length ic in
      let src = really_input_string ic len in
      close_in ic;
      Parse.program_exn src
  | Some _, Some _ -> failwith "give either --bench or --file, not both"
  | None, None -> failwith "one of --bench or --file is required"

let print_stats cfg (s : Processor.stats) breakdown_requested account =
  Printf.printf "cycles              %d\n" s.Processor.cycles;
  Printf.printf "instructions        %d\n" s.Processor.committed;
  Printf.printf "IPC                 %.3f\n" s.Processor.ipc;
  Printf.printf "branches            %d (%d mispredicted)\n" s.Processor.branches
    s.Processor.mispredicts;
  Printf.printf "loads / stores      %d / %d\n" s.Processor.loads s.Processor.stores;
  Printf.printf "icache accesses     %d (%d misses)\n" s.Processor.icache_accesses
    s.Processor.icache_misses;
  Printf.printf "dcache accesses     %d (%d misses)\n" s.Processor.dcache_accesses
    s.Processor.dcache_misses;
  Printf.printf "avg power           %.2f units/cycle\n" s.Processor.avg_power;
  if cfg.Config.reuse_enabled then begin
    Printf.printf "gated cycles        %d (%.1f%%)\n" s.Processor.gated_cycles
      (100. *. s.Processor.gated_fraction);
    Printf.printf "reuse dispatches    %d\n" s.Processor.reuse_dispatches;
    Printf.printf "reuse committed     %d (%.1f%% coverage)\n" s.Processor.reuse_committed
      (if s.Processor.committed = 0 then 0.
       else 100. *. float_of_int s.Processor.reuse_committed /. float_of_int s.Processor.committed);
    Printf.printf "buffering           %d attempts, %d revokes, %d promotions, %d exits\n"
      s.Processor.buffer_attempts s.Processor.revokes s.Processor.promotions
      s.Processor.reuse_exits
  end;
  if breakdown_requested then begin
    Printf.printf "\nPower breakdown:\n";
    Array.iter
      (fun (c, frac) ->
        if frac > 0.002 then Printf.printf "  %-12s %5.1f%%\n" (Component.name c) (100. *. frac))
      (Account.breakdown account)
  end

let run_cmd =
  let bench =
    Arg.(value & opt (some string) None & info [ "bench"; "b" ] ~docv:"NAME"
           ~doc:"Built-in benchmark to simulate (see $(b,riq-sim bench)).")
  in
  let file =
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~docv:"FILE"
           ~doc:"RIQ32 assembly file to simulate instead of a benchmark.")
  in
  let iq =
    Arg.(value & opt int 64 & info [ "iq" ] ~docv:"N"
           ~doc:"Issue queue size (ROB scales with it, LSQ to half).")
  in
  let reuse =
    Arg.(value & flag & info [ "reuse"; "r" ]
           ~doc:"Enable the reusable-instruction issue queue.")
  in
  let optimized =
    Arg.(value & flag & info [ "optimized"; "O" ]
           ~doc:"Apply loop distribution before code generation.")
  in
  let breakdown =
    Arg.(value & flag & info [ "power-breakdown"; "p" ] ~doc:"Print the power breakdown.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Validate the final architectural state against the reference simulator.")
  in
  let report =
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
           ~doc:"Write the unified run report (stats, power groups, loop decisions, \
                 sampler summary) as schema-versioned JSON.")
  in
  let action bench file iq reuse optimized breakdown check report =
    let program = load_program bench file optimized in
    let cfg = Config.with_iq_size (if reuse then Config.reuse else Config.baseline) iq in
    (* Only the report reads the sampler. *)
    let sample_stride = Option.map (fun _ -> 64) report in
    let job = Riq_exp.Job.make ~check cfg program in
    let fail e = failwith (Riq_exp.Outcome.error_to_string e) in
    let p =
      match Riq_exp.Runner.simulate ?sample_stride job with
      | Ok (p, _) -> p
      | Error e -> fail e
    in
    if check then begin
      match Riq_exp.Runner.check job (Riq_exp.Runner.observe p) with
      | Ok _ -> print_endline "differential check: architectural state matches"
      | Error e -> fail e
    end;
    print_stats cfg (Processor.stats p) breakdown (Processor.account p);
    match report with
    | None -> ()
    | Some path ->
        Json.to_file path (Report.make ?benchmark:bench p);
        Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate a benchmark or an assembly file")
    Term.(
      const action $ bench $ file $ iq $ reuse $ optimized $ breakdown $ check $ report)

let bench_cmd =
  let action () =
    List.iter
      (fun w ->
        Printf.printf "%-8s %-14s %s\n" w.Workloads.name w.Workloads.source
          w.Workloads.description)
      Workloads.all
  in
  Cmd.v (Cmd.info "bench" ~doc:"List the built-in benchmarks") Term.(const action $ const ())

(* Shared engine flags: worker count, cache policy, per-job timeout. *)
let jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Number of worker processes (1 = in-process, no fork).")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ]
         ~doc:"Disable the on-disk result cache.")

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Result cache root (default \\$RIQ_CACHE_DIR or .riq-cache).")

let timeout_arg =
  Arg.(value & opt float 600. & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Per-job wall-clock budget in worker-pool mode (<= 0 disables).")

let serve_addr_arg =
  Arg.(value & opt (some string) None & info [ "serve" ] ~docv:"ADDR"
         ~doc:"Run simulations through a $(b,riq-sim serve) daemon listening on the \
               Unix socket ADDR instead of local workers; the daemon's shared store \
               then serves repeats across clients.")

let progress_reporter () =
  let last = ref "" in
  fun (p : Riq_exp.Engine.progress) ->
    let line =
      Printf.sprintf "[sweep] %d/%d done | %d cache hits, %d dedup, %d run, %d failed | %d worker%s"
        p.Riq_exp.Engine.finished p.Riq_exp.Engine.total p.Riq_exp.Engine.cache_hits
        p.Riq_exp.Engine.deduped p.Riq_exp.Engine.executed p.Riq_exp.Engine.failures
        p.Riq_exp.Engine.workers
        (if p.Riq_exp.Engine.workers > 1 then "s" else "")
    in
    if line <> !last then begin
      last := line;
      Printf.eprintf "\r%s%!" line;
      if p.Riq_exp.Engine.finished = p.Riq_exp.Engine.total then Printf.eprintf "\n%!"
    end

(* Engine + (in serve mode) the client it runs through. *)
let make_engine ?serve ?trace ~jobs ~no_cache ~cache_dir ~timeout ~progress () =
  let on_progress = if progress then Some (progress_reporter ()) else None in
  match serve with
  | Some addr ->
      (* Remote backend: no local cache — the daemon's shared store is the
         cache, and keeping a local one would hide its hit counters. *)
      let client =
        Riq_svc.Client.connect ?trace (Riq_svc.Protocol.address_of_string addr)
      in
      let engine =
        Riq_exp.Engine.create ~backend:(Riq_svc.Client.backend client) ~timeout
          ?on_progress ()
      in
      (engine, Some client)
  | None ->
      let cache =
        if no_cache then None else Some (Riq_exp.Cache.open_ ?root:cache_dir ())
      in
      (Riq_exp.Engine.create ~workers:jobs ?cache ~timeout ?on_progress (), None)

(* One merged Chrome trace: the client's own spans plus the daemon's span
   ring, both stamped from the host's one wall clock. Metadata records
   lead, payload events follow sorted by timestamp, so the file is
   monotone and loads in Perfetto as one multi-process timeline. *)
let write_merged_trace ~path ~tracer ~client =
  let client_events = List.map Riq_obs.Tracer.event_json (Riq_obs.Tracer.events tracer) in
  let daemon_events =
    match Riq_svc.Client.server_trace ~since:0 client with
    | Ok (events, _next) -> events
    | Error msg ->
        Riq_obs.Log.warn ~scope:"sweep"
          ~kv:[ ("error", msg) ]
          "daemon trace unavailable; writing client spans only";
        []
  in
  let ts_of j =
    match Option.bind (Json.member "ts" j) Json.to_int with Some t -> t | None -> 0
  in
  let is_meta j = Json.member "ph" j = Some (Json.String "M") in
  let metas, payload =
    List.partition is_meta (client_events @ daemon_events)
  in
  let payload = List.stable_sort (fun a b -> compare (ts_of a) (ts_of b)) payload in
  Json.to_file path (Json.List (metas @ payload));
  Printf.printf "wrote %s: %d events across %d processes (open in ui.perfetto.dev)\n"
    path
    (List.length metas + List.length payload)
    (List.length
       (List.sort_uniq compare
          (List.filter_map
             (fun j -> Option.bind (Json.member "pid" j) Json.to_int)
             (metas @ payload))))

let print_engine_summary engine =
  let s = Riq_exp.Engine.stats engine in
  Printf.printf
    "engine: %d jobs = %d cache hits + %d deduped + %d dispatched (%d failed)\n"
    s.Riq_exp.Engine.jobs s.Riq_exp.Engine.cache_hits s.Riq_exp.Engine.deduped
    s.Riq_exp.Engine.executed s.Riq_exp.Engine.failures;
  if s.Riq_exp.Engine.retries > 0 || s.Riq_exp.Engine.timeouts > 0 then
    Printf.printf "        %d retried after worker crashes, %d timed out\n"
      s.Riq_exp.Engine.retries s.Riq_exp.Engine.timeouts;
  Printf.printf
    "        %.1f s wall, %.1f s worker-busy, %s x%d, %.0f%% utilization\n"
    s.Riq_exp.Engine.wall_seconds s.Riq_exp.Engine.busy_seconds
    (Riq_exp.Engine.backend_name engine)
    (Riq_exp.Engine.workers engine)
    (100. *. Riq_exp.Engine.utilization engine)

let sweep_cmd =
  let sizes =
    Arg.(value & opt (list int) Sweep.default_sizes & info [ "sizes"; "s" ] ~docv:"N,N,..."
           ~doc:"Issue-queue sizes to sweep (default the paper's 32,64,128,256).")
  in
  let benches =
    Arg.(value & opt (list string) [] & info [ "bench"; "b" ] ~docv:"NAME,NAME,..."
           ~doc:"Benchmarks to sweep (default all of Table 2).")
  in
  let no_check =
    Arg.(value & flag & info [ "no-check" ]
           ~doc:"Skip the per-run differential validation (faster).")
  in
  let json_file =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also export per-cell statistics, power groups and engine counters as JSON.")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit comma-separated values instead of tables.")
  in
  let trace_file =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Serve mode only: write one merged Chrome trace covering the client's \
                 submit/await spans and the daemon's queue-wait and per-worker \
                 simulate spans, on the host's one clock (load it in ui.perfetto.dev).")
  in
  let action jobs no_cache cache_dir timeout serve sizes benches no_check json_file csv
      trace_file =
    let benchmarks =
      if benches = [] then Workloads.all else List.map find_workload benches
    in
    let tracer =
      match (trace_file, serve) with
      | None, _ -> None
      | Some _, None -> failwith "--trace requires --serve (it is a service-level trace)"
      | Some _, Some _ ->
          let tr = Riq_obs.Tracer.ring ~capacity:16384 () in
          Riq_obs.Tracer.set_pid tr (Unix.getpid ());
          Riq_obs.Tracer.set_process_name tr "riq-sim sweep";
          Riq_obs.Tracer.set_thread_name tr ~tid:0 "client";
          Some tr
    in
    let engine, client =
      make_engine ?serve ?trace:tracer ~jobs ~no_cache ~cache_dir ~timeout
        ~progress:true ()
    in
    let sweep = Sweep.run ~engine ~sizes ~benchmarks ~check:(not no_check) () in
    let emit t = if csv then print_string (Table.to_csv t) else Table.print t in
    emit (Figures.fig5 sweep);
    print_newline ();
    emit (Figures.fig6 sweep);
    print_newline ();
    emit (Figures.fig7 sweep);
    print_newline ();
    emit (Figures.fig8 sweep);
    print_newline ();
    (match json_file with
    | Some path ->
        Riq_util.Json.to_file path (Sweep.to_json ~engine sweep);
        Printf.printf "wrote %s\n" path
    | None -> ());
    (match (trace_file, tracer, client) with
    | Some path, Some tr, Some cl -> write_merged_trace ~path ~tracer:tr ~client:cl
    | _ -> ());
    print_engine_summary engine
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run the issue-queue sweep through the experiment engine (parallel workers, \
          content-addressed result cache, or a remote serve daemon) and print Figures 5-8")
    Term.(const action $ jobs_arg $ no_cache_arg $ cache_dir_arg $ timeout_arg
          $ serve_addr_arg $ sizes $ benches $ no_check $ json_file $ csv $ trace_file)

let fig_cmd =
  let which =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE"
           ~doc:"One of: table1 table2 fig5 fig6 fig7 fig8 fig9 coverage revokes nblt strategy related predictor unroll all")
  in
  let no_check =
    Arg.(value & flag & info [ "no-check" ]
           ~doc:"Skip the per-run differential validation (faster).")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit comma-separated values instead of a table.")
  in
  let action which no_check csv jobs no_cache cache_dir timeout serve =
    let check = not no_check in
    let engine, _client =
      make_engine ?serve ~jobs ~no_cache ~cache_dir ~timeout ~progress:true ()
    in
    let sweep = lazy (Sweep.run ~engine ~check ()) in
    let emit t = if csv then print_string (Table.to_csv t) else Table.print t in
    let print_fig = function
      | "table1" -> print_string (Figures.table1 ())
      | "table2" -> emit (Figures.table2 ())
      | "fig5" -> emit (Figures.fig5 (Lazy.force sweep))
      | "fig6" -> emit (Figures.fig6 (Lazy.force sweep))
      | "fig7" -> emit (Figures.fig7 (Lazy.force sweep))
      | "fig8" -> emit (Figures.fig8 (Lazy.force sweep))
      | "fig9" -> emit (Figures.fig9 ~engine ~check ())
      | "coverage" -> emit (Figures.coverage (Lazy.force sweep))
      | "revokes" -> emit (Figures.revoke_causes ~check ())
      | "nblt" -> emit (Figures.nblt_ablation ~engine ~check ())
      | "strategy" -> emit (Figures.strategy_ablation ~engine ~check ())
      | "related" ->
          emit (Figures.related_work ~engine ~check ~iq_size:64 ());
          print_newline ();
          emit (Figures.related_work ~engine ~check ~iq_size:256 ())
      | "predictor" -> emit (Figures.predictor_ablation ~engine ~check ())
      | "unroll" -> emit (Figures.unroll_ablation ~engine ~check ())
      | other -> failwith ("unknown figure: " ^ other)
    in
    if which = "all" then
      List.iter
        (fun f ->
          print_fig f;
          print_newline ())
        [
          "table1"; "table2"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "coverage"; "revokes";
          "nblt"; "strategy"; "related"; "predictor"; "unroll";
        ]
    else print_fig which
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Regenerate a table or figure of the paper")
    Term.(const action $ which $ no_check $ csv $ jobs_arg $ no_cache_arg $ cache_dir_arg
          $ timeout_arg $ serve_addr_arg)

let trace_cmd =
  let bench_pos =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Built-in benchmark to trace (same as $(b,--bench)).")
  in
  let bench =
    Arg.(value & opt (some string) None & info [ "bench"; "b" ] ~docv:"NAME"
           ~doc:"Built-in benchmark to trace.")
  in
  let file =
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~docv:"FILE"
           ~doc:"RIQ32 assembly file to trace.")
  in
  let limit =
    Arg.(value & opt int 200 & info [ "n" ] ~docv:"N"
           ~doc:"Commit-log mode: number of instructions to trace (from the start).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Run the cycle-accurate simulator instead and stream a Chrome trace-event \
                 JSON file (load it in ui.perfetto.dev or chrome://tracing).")
  in
  let reuse =
    Arg.(value & flag & info [ "reuse"; "r" ]
           ~doc:"Chrome-trace mode: enable the reusable-instruction issue queue.")
  in
  let iq =
    Arg.(value & opt int 64 & info [ "iq" ] ~docv:"N"
           ~doc:"Chrome-trace mode: issue queue size.")
  in
  let stride =
    Arg.(value & opt int 64 & info [ "stride" ] ~docv:"CYCLES"
           ~doc:"Chrome-trace mode: cycles between counter-track samples.")
  in
  let chrome_trace bench file path reuse iq stride =
    let program = load_program bench file false in
    let cfg = Config.with_iq_size (if reuse then Config.reuse else Config.baseline) iq in
    let label = match bench with Some b -> "riq-sim " ^ b | None -> "riq-sim" in
    let oc = open_out path in
    let tracer = Riq_obs.Tracer.stream ~process_name:label oc in
    let p =
      match
        Riq_exp.Runner.simulate ~tracer ~sample_stride:stride (Riq_exp.Job.make cfg program)
      with
      | Ok (p, _) -> p
      | Error e -> failwith (Riq_exp.Outcome.error_to_string e)
    in
    Riq_obs.Tracer.close tracer;
    close_out oc;
    Printf.printf "wrote %s: %d events over %d cycles (open in ui.perfetto.dev)\n" path
      (Riq_obs.Tracer.recorded tracer) (Processor.cycles p)
  in
  let action bench_pos bench file limit out reuse iq stride =
    let bench =
      match (bench_pos, bench) with
      | Some _, Some _ -> failwith "give the benchmark either positionally or with --bench"
      | Some _, None -> bench_pos
      | None, b -> b
    in
    match out with
    | Some path -> chrome_trace bench file path reuse iq stride
    | None ->
    let program = load_program bench file false in
    let m = Riq_interp.Machine.create program in
    let continue_ = ref true in
    while !continue_ && Riq_interp.Machine.insn_count m < limit do
      let pc = Riq_interp.Machine.pc m in
      match Program.insn_at program pc with
      | None -> continue_ := false
      | Some insn ->
          let dest = Riq_isa.Insn.dest insn in
          (match Riq_interp.Machine.step m with
          | Some _ -> continue_ := false
          | None -> ());
          let written =
            match dest with
            | Some d when Riq_isa.Reg.is_fp d ->
                Printf.sprintf "  %s <- %g" (Riq_isa.Reg.to_string d)
                  (Riq_interp.Machine.freg m d)
            | Some d ->
                Printf.sprintf "  %s <- %d" (Riq_isa.Reg.to_string d)
                  (Riq_interp.Machine.reg m d)
            | None -> ""
          in
          Printf.printf "%08x  %-28s%s\n" pc (Riq_isa.Insn.to_string insn) written
    done
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Architectural commit log from the reference simulator, or — with $(b,--out) — a \
          Chrome trace of the cycle-accurate pipeline (reuse-engine spans, pipeline \
          events, IPC/occupancy/power counter tracks)")
    Term.(const action $ bench_pos $ bench $ file $ limit $ out $ reuse $ iq $ stride)

let pipeview_cmd =
  let bench =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Benchmark name.")
  in
  let reuse =
    Arg.(value & flag & info [ "reuse"; "r" ] ~doc:"Enable the reusable issue queue.")
  in
  let cycles =
    Arg.(value & opt int 200 & info [ "n" ] ~docv:"N" ~doc:"Cycles to display.")
  in
  let skip =
    Arg.(value & opt int 0 & info [ "skip" ] ~docv:"N" ~doc:"Cycles to skip first.")
  in
  let action bench reuse cycles skip =
    let program = load_program (Some bench) None false in
    let cfg = if reuse then Config.reuse else Config.baseline in
    let p = Processor.create cfg program in
    for _ = 1 to skip do
      if not (Processor.halted p) then Processor.step_cycle p
    done;
    Printf.printf "%8s  %-14s %4s %4s %4s  %s\n" "cycle" "iq-state" "iq" "rob" "lsq"
      "committed";
    let state_name () =
      match (Processor.reuse_state p).Reuse_state.state with
      | Reuse_state.Normal -> "normal"
      | Reuse_state.Buffering -> "buffering"
      | Reuse_state.Reusing -> "code-reuse"
    in
    let continue_ = ref true in
    let shown = ref 0 in
    while !continue_ && !shown < cycles do
      if Processor.halted p then continue_ := false
      else begin
        Processor.step_cycle p;
        incr shown;
        let iq, rob, lsq = Processor.occupancy p in
        Printf.printf "%8d  %-14s %4d %4d %4d  %d\n" (Processor.cycles p) (state_name ()) iq
          rob lsq (Processor.committed p)
      end
    done
  in
  Cmd.v
    (Cmd.info "pipeview" ~doc:"Per-cycle pipeline occupancy and issue-queue state")
    Term.(const action $ bench $ reuse $ cycles $ skip)

let serve_cmd =
  let addr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR"
           ~doc:"Unix socket path to listen on.")
  in
  let workers =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Resident simulation worker processes.")
  in
  let timeout =
    Arg.(value & opt float 600. & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-job wall-clock budget (<= 0 disables).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ]
           ~doc:"Only log errors (equivalent to RIQ_LOG=error).")
  in
  let action addr workers cache_dir timeout quiet =
    if quiet then Riq_obs.Log.set_level Riq_obs.Log.Error;
    (* One registry for the store and the daemon: store_* and serve_*
       series come back in a single scrape. *)
    let metrics = Riq_obs.Metrics.create () in
    let store = Riq_exp.Cache.open_ ?root:cache_dir ~metrics () in
    let timeout = if timeout <= 0. then None else Some timeout in
    let config =
      Riq_svc.Server.config ~workers ~timeout ~metrics
        ~address:(Riq_svc.Protocol.address_of_string addr)
        store
    in
    Riq_svc.Server.serve config
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the sweep service daemon: accept simulation jobs over a Unix socket, \
          batch identical requests, run them on resident workers in arrival order, \
          and answer repeats from the shared result store. Its metrics are scraped \
          with $(b,riq-sim top). SIGTERM drains gracefully.")
    Term.(const action $ addr $ workers $ cache_dir_arg $ timeout $ quiet)

let top_cmd =
  let addr =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR"
           ~doc:"The daemon's Unix socket path.")
  in
  let interval =
    Arg.(value & opt float 2. & info [ "interval"; "n" ] ~docv:"SECONDS"
           ~doc:"Seconds between refreshes.")
  in
  let once =
    Arg.(value & flag & info [ "once" ] ~doc:"Print one snapshot and exit.")
  in
  let prom =
    Arg.(value & flag & info [ "prom" ]
           ~doc:"Print the raw Prometheus text exposition and exit.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the metrics snapshot as riq-metrics/1 JSON and exit.")
  in
  let module M = Riq_obs.Metrics in
  let find snap name labels =
    List.find_opt
      (fun s -> s.M.s_name = name && s.M.s_labels = labels)
      snap
  in
  let counter_of snap name labels =
    match find snap name labels with
    | Some { M.s_value = M.Counter_sample v; _ } -> v
    | _ -> 0
  in
  let gauge_of snap name labels =
    match find snap name labels with
    | Some { M.s_value = M.Gauge_sample v; _ } -> v
    | _ -> 0.
  in
  let hist_line snap name labels =
    match find snap name labels with
    | Some { M.s_value = M.Histogram_sample { bounds; counts; sum }; _ } ->
        let n = Array.fold_left ( + ) 0 counts in
        if n = 0 then "      (no samples)"
        else
          Printf.sprintf "%6d samples | mean %8.3fs | p50 %8.3fs | p95 %8.3fs" n
            (sum /. float_of_int n)
            (M.histogram_quantile 0.5 ~bounds ~counts)
            (M.histogram_quantile 0.95 ~bounds ~counts)
    | _ -> "      (absent)"
  in
  (* One frame, one scrape: every line reads the daemon's registry. *)
  let render addr client =
    let snap =
      match Riq_svc.Client.server_metrics client with
      | Ok s -> s
      | Error e -> failwith ("metrics scrape failed: " ^ e)
    in
    let count ?(labels = []) name = counter_of snap name labels in
    let level ?(labels = []) name = int_of_float (gauge_of snap name labels) in
    Printf.printf "riq-serve %s | up %.0fs | %d workers | draining: %b\n" addr
      (gauge_of snap "serve_uptime_seconds" [])
      (Riq_svc.Client.backend client).Riq_exp.Backend.parallelism
      (level "serve_draining" = 1);
    let hits = count ~labels:[ ("result", "hit") ] "store_reads_total" in
    Printf.printf
      "jobs      %d submitted = %d store hits + %d batched + %d executed (%d retries, %d timeouts)\n"
      (count "serve_submitted_total") hits (count "serve_batched_total")
      (count "serve_executed_total") (count "serve_retries_total")
      (count "serve_timeouts_total");
    Printf.printf "queues    queued %d | inflight %d | open tickets %d\n"
      (level "serve_queue_depth") (level "serve_inflight") (level "serve_tickets_open");
    Printf.printf "store     %d hits, %d misses, %d writes\n" hits
      (count ~labels:[ ("result", "miss") ] "store_reads_total")
      (count "store_writes_total");
    Printf.printf "wait      %s\n" (hist_line snap "serve_queue_wait_seconds" []);
    Printf.printf "simulate  %s\n" (hist_line snap "serve_simulate_seconds" []);
    flush stdout
  in
  let action addr interval once prom json =
    let client =
      Riq_svc.Client.connect (Riq_svc.Protocol.address_of_string addr)
    in
    if prom then begin
      match Riq_svc.Client.server_exposition client with
      | Ok s -> print_string s
      | Error e -> failwith ("metrics scrape failed: " ^ e)
    end
    else if json then begin
      match Riq_svc.Client.server_metrics client with
      | Ok snap -> print_endline (Json.to_string (M.to_json snap))
      | Error e -> failwith ("metrics scrape failed: " ^ e)
    end
    else if once then render addr client
    else begin
      let continue_ = ref true in
      while !continue_ do
        (* Home + clear-to-end keeps the refresh flicker-free. *)
        print_string "\027[H\027[J";
        (try render addr client
         with Failure msg ->
           continue_ := false;
           Printf.printf "%s\n" msg);
        flush stdout;
        if !continue_ then
          try ignore (Unix.select [] [] [] interval) with _ -> ()
      done
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of a running serve daemon: job and store counters, \
          queue depth and wait quantiles, simulate-time quantiles — \
          each frame drawn from one $(b,metrics) scrape. With $(b,--prom) or \
          $(b,--json), print one machine-readable scrape instead; a file-based \
          collector runs $(b,--once --prom) on a timer.")
    Term.(const action $ addr $ interval $ once $ prom $ json)

let disasm_cmd =
  let bench =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Benchmark name.")
  in
  let optimized =
    Arg.(value & flag & info [ "optimized"; "O" ] ~doc:"Disassemble the loop-distributed code.")
  in
  let action bench optimized =
    let w = find_workload bench in
    let program = if optimized then Workloads.optimized w else Workloads.program w in
    Format.printf "%a" Program.pp_listing program
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Print the compiled RIQ32 code of a benchmark")
    Term.(const action $ bench $ optimized)

let () =
  let doc = "Reusable-instruction issue queue simulator (Hu et al., DATE 2004)" in
  let info = Cmd.info "riq-sim" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [ run_cmd; bench_cmd; sweep_cmd; fig_cmd; serve_cmd; top_cmd; disasm_cmd;
        trace_cmd; pipeview_cmd ]
  in
  exit
    (try Cmd.eval ~catch:false cmd with
    | Failure msg ->
        Printf.eprintf "riq-sim: %s\n" msg;
        2
    | e ->
        Printf.eprintf "riq-sim: internal error, uncaught exception:\n  %s\n"
          (Printexc.to_string e);
        125)

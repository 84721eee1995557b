(* The ledger's vocabulary: workload names and every metric it reports,
   with units. BENCHMARK.json at the repository root repeats these lists
   (plus the regression bounds); the test suite checks the two agree. *)

open Riq_util

let workloads = [ "core-tight"; "core-large"; "sweep-cold-j2"; "serve-mixed" ]

(* End-to-end metrics, printed by an untraced run. *)
let end_to_end = [ ("setup_s", "s"); ("pass_s", "s"); ("peak_rss_mb", "MB") ]

let kernels = [ "adi"; "aps"; "btrix"; "eflux"; "tomcat"; "tsf"; "vpenta"; "wss" ]
let configs = [ "baseline"; "reuse" ]

let cell_cpu_metric kernel config = Printf.sprintf "core.cpu_s.%s.%s" kernel config

(* Per-layer metrics, printed by a traced run. A layer the workload does
   not exercise (e.g. the daemon on core-tight) reads 0. *)
let per_layer =
  [
    ("workloads.compile_s", "s");
    ("interp.minsns_per_cpu_s", "Minsns/s");
    ("core.create_s", "s");
    ("core.run_cpu_s", "s");
    ("core.minsns_per_cpu_s", "Minsns/s");
    ("core.ns_per_sim_cycle", "ns");
    ("core.minor_words_per_insn", "words/insn");
    ("core.vs_interp", "ratio");
    ("core.job_s_p50", "s");
    ("core.job_s_p90", "s");
  ]
  @ List.concat_map
      (fun k -> List.map (fun c -> (cell_cpu_metric k c, "s")) configs)
      kernels
  @ [
      ("core.ffwd_iterations", "count");
      ("core.skipped_cycle_share", "fraction");
      ("core.ffwd_saved_share", "fraction");
      ("core.skip_saved_share", "fraction");
      ("model.sim_cycles", "count");
      ("model.committed", "count");
      ("model.ipc", "insn/cycle");
      ("model.icache_accesses", "count");
      ("model.dcache_misses", "count");
      ("model.mispredicts", "count");
      ("model.gated_cycle_share", "fraction");
      ("model.reuse_commit_share", "fraction");
      ("model.power_reduction_pct", "%");
      ("unit.isa_decode_ns", "ns");
      ("unit.mem_cache_access_ns", "ns");
      ("unit.branch_bimod_ns", "ns");
      ("unit.ooo_iq_ns", "ns");
      ("unit.power_tick_ns", "ns");
      ("unit.loopir_compile_us", "us");
      ("engine.busy_s", "s");
      ("engine.utilization", "fraction");
      ("engine.idle_s", "s");
      ("engine.job_s_p50", "s");
      ("engine.job_s_p90", "s");
      ("engine.check_share", "fraction");
      ("engine.retries", "count");
      ("engine.timeouts", "count");
      ("job.fingerprint_us", "us");
      ("cache.store_us", "us");
      ("cache.find_us", "us");
      ("client.requests_per_pass", "count");
      ("client.request_s_p50", "s");
      ("client.request_s_p90", "s");
      ("client.rtt_us", "us");
      ("serve.queue_wait_s_p50", "s");
      ("serve.queue_wait_s_p90", "s");
      ("serve.simulate_s_p50", "s");
      ("store.hit_ratio", "fraction");
      ("store.writes_per_pass", "count");
      ("serve.batched", "count");
      ("client.reconnects", "count");
      ("serve.daemon_rss_mb", "MB");
      ("trace.overhead_share", "fraction");
    ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; lower_is_better : bool; bound : float option }

type benchmark = {
  workload_names : string list;
  e2e : metric list;
  layers : metric list;
  run_seconds : int;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_benchmark path =
  let ( let* ) = Result.bind in
  let* doc = Json.of_string (read_file path) in
  let field k j = Option.to_result ~none:("missing " ^ k) (Json.member k j) in
  let str k j = Option.to_result ~none:("bad " ^ k) (Option.bind (Json.member k j) Json.to_str) in
  let list k j = Option.to_result ~none:("bad " ^ k) (Option.bind (Json.member k j) Json.to_list) in
  let metric j =
    let* name = str "name" j in
    let* unit_ = str "unit" j in
    let* better = str "better" j in
    let* lower_is_better =
      match better with
      | "lower" -> Ok true
      | "higher" -> Ok false
      | b -> Error ("bad better: " ^ b)
    in
    let bound = Option.bind (Json.member "bound" j) Json.to_float_opt in
    Ok { name; unit_; lower_is_better; bound }
  in
  let all f l =
    List.fold_right
      (fun x acc ->
        let* acc = acc in
        let* v = f x in
        Ok (v :: acc))
      l (Ok [])
  in
  let* ws = list "workloads" doc in
  let* workload_names = all (str "name") ws in
  let* e2e = Result.bind (list "end_to_end" doc) (all metric) in
  let* layers = Result.bind (list "per_layer" doc) (all metric) in
  let* rs = field "run_seconds" doc in
  let* run_seconds = Option.to_result ~none:"bad run_seconds" (Json.to_int rs) in
  Ok { workload_names; e2e; layers; run_seconds }

open Riq_workloads

(** The issue-queue size sweep shared by Figures 5-8: every benchmark at
    every queue size, with and without the reuse mechanism (ROB = queue
    size, LSQ = half, as in the paper's Section 3). Results are computed
    once and reused by all figure printers.

    Since the experiment engine landed, the sweep is submitted as one job
    batch: pass [engine] to parallelize it over worker processes and/or
    serve cells from the on-disk result cache. Cell values are
    bit-identical whatever the worker count. *)

type cell = { baseline : Riq_exp.Outcome.sim_result; reuse : Riq_exp.Outcome.sim_result }

val reduction : float -> float -> float
(** [reduction base with_] = percent reduction, [100*(1 - with_/base)];
    0 when [base] is 0. *)

type t = {
  sizes : int list;
  benchmarks : Workloads.t list;
  cells : (string * (int * cell) list) list; (** benchmark name -> per-size *)
}

val default_sizes : int list
(** [32; 64; 128; 256], the paper's sweep. *)

val jobs :
  ?sizes:int list -> ?benchmarks:Workloads.t list -> ?check:bool -> unit ->
  Riq_exp.Job.t array
(** The sweep's job batch in its canonical order (benchmark-major, then
    size, baseline before reuse) — exposed for tooling that wants to
    inspect or prewarm the cache. *)

val run :
  ?engine:Riq_exp.Engine.t ->
  ?sizes:int list -> ?benchmarks:Workloads.t list -> ?check:bool -> unit -> t
(** [engine] defaults to a transient sequential engine without caching
    (the historical behaviour). [check] (default true) runs the
    differential validation on every simulation. Progress comes from the
    engine's [on_progress]. Raises [Failure] if any cell fails (see
    {!Riq_exp.Outcome.error}). *)

val cell : t -> bench:string -> size:int -> cell

val to_json : ?engine:Riq_exp.Engine.t -> t -> Riq_util.Json.t
(** Machine-readable export: per-cell simulator statistics and power
    groups plus derived percentages, and — when [engine] is given — its
    cache/execution statistics plus any backend telemetry (for a remote
    backend, the service's hit/miss, queue-depth, batching and store
    counters) ([schema = "riq-sweep/3"]). *)

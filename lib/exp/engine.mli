
(** The experiment engine: schedules {!Job.t}s over a fork worker pool,
    serves repeats from the content-addressed {!Cache}, deduplicates
    identical jobs inside a batch, and reports live progress.

    Results are bit-identical regardless of [workers]: parallelism only
    changes who computes each outcome, never what is computed. *)

type progress = {
  total : int;
  finished : int;
  cache_hits : int;
  deduped : int; (** served by another identical job in the same batch *)
  executed : int;
  failures : int;
  workers : int;
}

type stats = {
  jobs : int; (** jobs submitted across all [run] calls *)
  cache_hits : int;
  deduped : int;
  executed : int; (** jobs sent to the backend (simulated or served remotely) *)
  failures : int;
  retries : int; (** jobs re-dispatched after a worker crash *)
  timeouts : int; (** jobs recorded as [Job_timeout] *)
  wall_seconds : float;
  busy_seconds : float; (** summed worker busy time *)
}

type t

val create :
  ?workers:int ->
  ?backend:Backend.t ->
  ?cache:Cache.t ->
  ?timeout:float ->
  ?on_progress:(progress -> unit) ->
  unit ->
  t
(** [backend] is where cache-missing jobs execute; when omitted it is
    {!Backend.default}[ ~workers] — the fork pool for [workers] (default
    1) > 1 when the platform supports it, in-process otherwise. Omitting
    [cache] disables local result caching (a remote backend typically
    runs cache-less and lets the daemon's shared store serve repeats).
    [timeout] (default 600 s; [<= 0.] disables) is the per-job wall-clock
    budget passed to the backend. [on_progress] fires after every job
    completion. *)

val run : t -> Job.t array -> Outcome.t array
(** Outcomes in job order. Per-job failures are recorded, never raised:
    one diverging simulation cannot kill a sweep. *)

val run_exn : t -> Job.t array -> Outcome.sim_result array
(** Like {!run} but raises [Failure] on the first failed job — for
    experiments whose tables need every cell. *)

val workers : t -> int
(** The backend's parallelism. *)

val backend_name : t -> string

val telemetry : t -> (string * Riq_util.Json.t) list
(** The backend's extra telemetry (e.g. a remote client's service
    counters), merged into the sweep export's engine block. *)

val stats : t -> stats

val job_seconds : t -> float array
(** Wall-clock seconds of every job actually executed (cache hits and
    deduplicated jobs excluded), in no particular order — the raw series
    behind the sweep export's job-time quantiles. *)

val utilization : t -> float
(** [busy / (wall * workers)] over the engine's lifetime, in [0, 1]. *)

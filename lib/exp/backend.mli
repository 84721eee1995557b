(** Pluggable execution backends for the {!Engine}.

    The engine owns caching, in-batch deduplication, progress and
    statistics; a backend only turns the cache-missing job indices into
    outcomes. Besides the two local implementations here, [Riq_svc.Client]
    builds a backend that forwards jobs to a [riq-sim serve] daemon over
    the wire protocol — the engine cannot tell the difference. *)

type stats = {
  busy_seconds : float;  (** summed worker busy time (0 when unknown) *)
  retries : int;  (** jobs re-dispatched after a worker crash *)
}

type t = {
  name : string;
  parallelism : int;  (** worker slots behind this backend, best guess *)
  telemetry : unit -> (string * Riq_util.Json.t) list;
      (** extra key/value pairs merged into the sweep export's engine
          block (e.g. the remote client's service counters); called once
          at export time. *)
  execute :
    timeout:float option ->
    jobs:Job.t array ->
    keys:string array ->
    indices:int list ->
    on_result:(int -> seconds:float -> Outcome.t -> unit) ->
    stats;
      (** Run [indices] (a subset of [jobs]), reporting each outcome
          exactly once via [on_result]. [keys.(i)] is
          [Job.fingerprint jobs.(i)], computed once by the engine, so a
          backend that needs keys never hashes a job again. Must not
          raise: per-job failures travel as [Error] outcomes. An index
          never reported is recorded by the engine as
          [Worker_crashed]. *)
}

val default : workers:int -> t
(** With [workers > 1], jobs in index order over a pool of resident
    forked {!Workers}, with its per-job [timeout] and retry-once on
    worker death; the pool runs in-process for a single job or when
    forking is unavailable, and finishes in-process whatever is left if
    it fails (e.g. fork exhaustion). Otherwise sequential execution in
    the calling process. *)


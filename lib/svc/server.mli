(** The [riq-sim serve] daemon: a single-threaded select loop multiplexing
    the listening Unix socket, wire-protocol clients and the result pipes of
    resident forked simulation workers ({!Riq_exp.Workers}), over a
    shared {!Riq_exp.Cache}.

    Scheduling: a submit names jobs by fingerprint only, and each
    fingerprint resolves exactly once — store read-through, then
    coalescing onto an in-flight execution (request batching), then, once
    the client has supplied the body and it fingerprints to the submitted
    key, one first-in first-out queue. A worker that dies mid-job gets the
    job retried once; one that exceeds the per-job timeout is killed and
    the job answered [Job_timeout].

    A ticket belongs to the connection that submitted it, and closing
    that connection frees it. The request that leaves a ticket needing no
    more bodies is answered with its outcomes once it completes; the
    connection is not read meanwhile. Replies are written without
    blocking, and a connection is not read while part of its last reply
    is unsent. Any other connection that stalls mid-frame for 5 s is
    closed, and so is one whose unsent reply makes no progress for 5 s.
    SIGTERM/SIGINT drains gracefully: stop accepting, run queued and
    in-flight jobs to completion (held replies still go out), shut down
    and reap every worker, unlink the socket.
    The daemon never walks, locks or deletes from the store: [riq-cache]
    maintains it.

    Observability: the daemon instruments itself against [metrics]
    ([serve_*], among them [serve_supplied_total], the job bodies it
    accepted, and [serve_draining], 1 during a drain) and keeps a bounded
    ring of wall-clock-microsecond spans (queue-wait, simulate per worker
    pid), stamped with the trace id of the connection that queued the job
    when its hello carried one. Both are served over the wire ([metrics]
    and [trace] ops). Every job's time is the one its worker measured,
    recorded once, by the daemon. Logging goes through {!Riq_obs.Log}
    under scope ["serve"]. *)

type config = {
  address : Protocol.address;
  workers : int;
  store : Riq_exp.Cache.t;
  timeout : float option;
  metrics : Riq_obs.Metrics.t;
}

val config :
  ?workers:int ->
  ?timeout:float option ->
  ?metrics:Riq_obs.Metrics.t ->
  address:Protocol.address ->
  Riq_exp.Cache.t ->
  config
(** [workers] defaults to 1, [timeout] to 600 s per job ([None]
    disables). [metrics] defaults to a fresh registry; the store must be
    opened on it, so [store_reads_total{result="hit"}] counts the jobs the
    daemon answers from the store. *)

val serve : config -> unit
(** Run the daemon until a graceful drain completes. Raises [Failure] if
    the address is already being served. *)

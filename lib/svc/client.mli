(** Client side of the serve protocol, packaged as an engine
    {!Riq_exp.Backend.t}: submit the fingerprints of the engine's
    cache-missing jobs as one ticket, supply the bodies the daemon lacks,
    replay the outcomes that answer the last of the two through
    [on_result]. A lost connection is retried once per submit; a supply's
    ticket dies with its connection, so that batch comes back unreported.
    The client ignores SIGPIPE while it writes to the daemon (and restores
    the previous disposition after each write), so a write to a daemon
    that went away fails with EPIPE and is retried on a fresh connection
    instead of killing the process. *)

type t

val connect :
  ?request_timeout:float ->
  ?metrics:Riq_obs.Metrics.t ->
  ?trace:Riq_obs.Tracer.t ->
  Protocol.address ->
  t
(** Connect and handshake ([hello] with this build's revision stamp).
    [request_timeout] (default 120 s) is SO_RCVTIMEO for every reply but a
    submit's or supply's, which waits for its outcomes. [metrics] is the
    registry that holds the client's counts (a private one when omitted):
    [client_requests_total], the [client_request_seconds] histogram,
    [client_reconnects_total], [client_submitted_total] and
    [client_results_total{source=hit|executed|batched}]. Clients that
    share one registry count into the same series. With [trace] (a
    caller-owned sink), submit/await spans are emitted in wall-clock
    microseconds under this process's default pid, and the hello carries
    the client's trace id, which the daemon stamps on the spans of the
    jobs this connection queues. Raises [Failure] when the daemon is
    unreachable or rejects the revision. *)

val close : t -> unit

val backend : t -> Riq_exp.Backend.t
(** The engine backend. Its busy time is the worker seconds of the jobs
    executed for it, and its telemetry hook contributes the
    {!service_json} block. *)

val server_stats : t -> Riq_util.Json.t option
(** One [metrics] round trip, returning the daemon's riq-metrics/1
    document; [None] if the daemon went away. The same scrape as
    {!server_metrics}, unparsed; the ledger's [client.rtt_us] times it. *)

val service_json : t -> Riq_util.Json.t
(** The ["service"] telemetry block: as [client], the address and the
    counts read back from the client's registry ([submitted],
    [remote_hits], [remote_executed], [remote_batched], [reconnects]),
    which are the sums over every client that shares that registry; as
    [server], one scrape of the daemon's registry in riq-metrics/1 JSON
    ([null] if the daemon went away). *)

val server_metrics : t -> (Riq_obs.Metrics.snapshot, string) result
(** One [metrics] round-trip: the daemon's metrics snapshot. *)

val server_trace : ?since:int -> t -> (Riq_util.Json.t list * int, string) result
(** One [trace] round-trip: daemon/worker span events with global index
    [>= since] as Chrome trace-event objects, exactly as the daemon
    recorded them (client and daemon share the host's clock). Returns the
    events and the next cursor. *)


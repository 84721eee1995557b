(** Client side of the serve protocol, packaged as an engine
    {!Riq_exp.Backend.t}: submit the fingerprints of the engine's
    cache-missing jobs as one ticket, supply the bodies the daemon lacks,
    replay the outcomes that answer the last of the two through
    [on_result]. A lost connection is retried once per submit; a supply's
    ticket dies with its connection, so that batch comes back unreported. *)

type t

val connect :
  ?request_timeout:float ->
  ?metrics:Riq_obs.Metrics.t ->
  ?trace:Riq_obs.Tracer.t ->
  Protocol.address ->
  t
(** Connect and handshake ([hello] with this build's revision stamp).
    [request_timeout] (default 120 s) is SO_RCVTIMEO for every reply but a
    submit's or supply's, which waits for its outcomes. With [metrics],
    the client registers [client_requests_total],
    [client_reconnects_total] and the [client_request_seconds] histogram.
    With [trace] (a caller-owned sink), submit/await spans are emitted in
    wall-clock microseconds under this process's default pid, and the
    hello carries the client's trace id, which the daemon stamps on the
    spans of the jobs this connection queues. Raises [Failure] when the
    daemon is unreachable or rejects the revision. *)

val close : t -> unit

val backend : t -> Riq_exp.Backend.t
(** The engine backend. Its busy time is the worker seconds of the jobs
    executed for it, and its telemetry hook contributes a ["service"]
    block: client-side provenance counters (remote hits / executed /
    batched, reconnects) plus, as [server], one scrape of
    the daemon's metrics registry in riq-metrics/1 JSON. *)

val server_stats : t -> Riq_util.Json.t option
(** One [metrics] round trip, returning the daemon's riq-metrics/1
    document; [None] if the daemon went away. The same scrape as
    {!server_metrics}, unparsed; the ledger's [client.rtt_us] times it. *)

val service_json : t -> Riq_util.Json.t
(** The telemetry block described under {!backend}. *)

val server_metrics : t -> (Riq_obs.Metrics.snapshot, string) result
(** One [metrics] round-trip: the daemon's metrics snapshot. *)

val server_exposition : t -> (string, string) result
(** Same scrape, rendered as Prometheus text exposition. *)

val server_trace : ?since:int -> t -> (Riq_util.Json.t list * int, string) result
(** One [trace] round-trip: daemon/worker span events with global index
    [>= since] as Chrome trace-event objects, exactly as the daemon
    recorded them (client and daemon share the host's clock). Returns the
    events and the next cursor. *)


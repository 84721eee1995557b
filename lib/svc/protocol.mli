(** Message shapes of the serve daemon's wire protocol (framing lives in
    {!Wire}). A session opens with [hello] carrying the simulator
    revision stamp and cache format version; the daemon rejects a
    mismatched peer before decoding any marshalled payload, so the opaque
    hex-encoded jobs/outcomes only ever travel between binaries that
    agree on their layout. *)

open Riq_exp

val version : string

type klass = Interactive | Batch
(** The two queue classes: interactive sweeps ahead of nightly fuzz
    campaigns, with weighted fairness so neither starves (see
    {!Server}). *)

val klass_to_string : klass -> string
val klass_of_string : string -> (klass, string) result

type source = Hit | Executed | Batched
(** Per-job result provenance: shared-store hit, executed for this
    request, or coalesced onto another request's in-flight execution of
    the same fingerprint. *)

val source_to_string : source -> string
val source_of_string : string -> (source, string) result

val job_to_wire : Job.t -> string
val job_of_wire : string -> Job.t
val outcome_to_wire : Outcome.t -> string
val outcome_of_wire : string -> Outcome.t

type trace_context = { trace_id : string; parent_span : int }
(** The client's trace identity, attached to submits so daemon- and
    worker-side spans can be merged into the client's Perfetto trace. *)

type request =
  | Hello of { revision : string; format : int; t_client : float option }
      (** [t_client] is the client's wall clock ([Unix.gettimeofday]) at
          send time; the daemon echoes its own in the reply so the client
          can estimate the clock offset and align merged trace
          timestamps. Absent from older clients. *)
  | Submit of { klass : klass; jobs : string list; trace : trace_context option }
  | Result of { ticket : int }
  | Stats
  | Metrics
      (** The daemon's metrics snapshot, as riq-metrics/1 JSON plus
          rendered Prometheus exposition. *)
  | Trace of { since : int }
      (** Daemon/worker trace events with global index [>= since];
          clients poll incrementally with the returned cursor. *)

val request_to_json : request -> Riq_util.Json.t
val request_of_json : Riq_util.Json.t -> (request, string) result

val ok : (string * Riq_util.Json.t) list -> Riq_util.Json.t
val error : string -> Riq_util.Json.t
val is_ok : Riq_util.Json.t -> bool
val error_of : Riq_util.Json.t -> string

type address = Unix_socket of string | Tcp of string * int

val address_of_string : string -> address
(** ["host:1234"] parses as TCP, everything else as a Unix socket path. *)

val address_to_string : address -> string
val sockaddr_of_address : address -> Unix.sockaddr

(** Message shapes of the serve daemon's wire protocol (framing lives in
    {!Wire}). A session opens with [hello] carrying the protocol
    {!version}, simulator revision stamp and cache format version; the
    daemon rejects a mismatched peer before decoding any marshalled
    payload, so the opaque hex-encoded jobs/outcomes only ever travel
    between binaries that agree on their layout.

    Submission is content-addressed: [submit] carries fingerprints only,
    the reply names the indices the daemon still [need]s (neither stored
    nor running), and [supply] carries just those jobs. The daemon
    re-fingerprints each supplied job and refuses a body whose key
    differs from the one submitted at its index. The request that leaves
    a ticket needing no more bodies is answered once the ticket
    completes, with [{ticket, outcomes, sources, seconds}]. *)

open Riq_exp

val version : string
(** ["riq-serve/4"]. {!request_of_json} refuses a [hello] of any other. *)

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

val jobs_to_wire : Job.t array -> string
(** One marshalled array, so a program shared by several jobs is encoded
    once. *)

val jobs_of_wire : string -> Job.t array
(** Raises on bad hex or bytes that are not a marshalled value. Bytes
    that unmarshal as some other type are not detected. *)

val outcome_to_wire : Outcome.t -> string
val outcome_of_wire : string -> Outcome.t

type trace_context = { trace_id : string; parent_span : int }
(** The client's trace identity, attached to submits so daemon- and
    worker-side spans can be merged into the client's Perfetto trace. *)

type request =
  | Hello of { revision : string; format : int }
  | Submit of { klass : klass; keys : string list; trace : trace_context option }
      (** [keys] are {!Job.fingerprint}s; the parser accepts only 32
          lowercase hex digits. The reply carries the [ticket] and the
          [need] list: indices into [keys] whose bodies must be supplied. *)
  | Supply of { ticket : int; indices : int list; jobs : string }
      (** The bodies of needed indices of [ticket], in [indices] order,
          as {!jobs_to_wire} of one array; only the submitting connection
          may supply [ticket]. *)
  | Metrics
      (** The daemon's metrics snapshot, as riq-metrics/1 JSON: the one
          view of its counters and gauges. *)
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

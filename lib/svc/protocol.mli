(** Message shapes of the serve daemon's wire protocol (framing lives in
    {!Wire}). A session opens with [hello] carrying the protocol
    {!version}, simulator revision stamp and cache format version, and the
    client's trace id when it traces; the daemon rejects a mismatched peer
    before decoding any marshalled payload, so the opaque marshalled
    jobs/outcomes only ever travel between binaries that agree on their
    layout.

    Submission is content-addressed: [submit] carries fingerprints only,
    the reply names the indices the daemon still [need]s (neither stored
    nor running), and the ticket's one [supply] carries exactly those
    bodies, in [need] order. The daemon refuses a supply whose body count
    differs from the need, or one of whose bodies fingerprints to another
    key than the one submitted at its index. The request that leaves a
    ticket needing no more bodies is answered once the ticket completes,
    with [{ticket, sources, seconds}] and the outcomes as the frame's
    payload ({!outcomes_to_wire}). *)

open Riq_exp

val version : string
(** ["riq-serve/6"]. {!request_of_wire} refuses a [hello] of any other. *)

type source = Hit | Executed | Batched
(** Per-job result provenance: shared-store hit, executed for this
    request, or coalesced onto another request's in-flight execution of
    the same fingerprint. *)

val source_to_string : source -> string
val source_of_string : string -> (source, string) result

val jobs_to_wire : Job.t array -> string
(** A supply's payload: one marshalled array, so a program shared by
    several jobs is encoded once. *)

val jobs_of_wire : string -> Job.t array
(** Raises on bytes that are not a marshalled value. Bytes that unmarshal
    as some other type are not detected. *)

val outcomes_to_wire : Outcome.t array -> string
(** A held reply's payload: the ticket's outcomes, in ticket order, as one
    marshalled array. *)

val outcomes_of_wire : string -> Outcome.t array

type request =
  | Hello of { revision : string; format : int; trace_id : string option }
      (** [trace_id] is the client's trace identity, sent once per
          connection when the client traces; the daemon stamps it on the
          spans of the jobs that connection queues. The reply is
          [ok {workers}]. *)
  | Submit of { keys : string list }
      (** [keys] are {!Job.fingerprint}s; the parser accepts only 32
          lowercase hex digits. The reply carries the [ticket] and the
          [need] list: indices into [keys] whose bodies must be supplied. *)
  | Supply of { ticket : int; jobs : string }
      (** The bodies of every index [ticket]'s submit reply listed, in
          [need] order: [jobs] is the frame's payload, {!jobs_to_wire} of
          one array. Only the submitting connection may supply [ticket]. *)
  | Metrics
      (** The daemon's metrics snapshot, as riq-metrics/1 JSON: the one
          view of its counters and gauges. *)
  | Trace of { since : int }
      (** Daemon/worker trace events with global index [>= since];
          clients poll incrementally with the returned cursor. *)

val request_to_wire : request -> Riq_util.Json.t * string option
(** A request's JSON and its payload, for {!Wire.send}: a supply's
    [jobs], no payload for any other op. *)

val request_of_wire : Riq_util.Json.t * string option -> (request, string) result
(** The inverse, from {!Wire.recv}. A supply without a payload, or any
    other op with one, is an [Error]. *)

val ok : (string * Riq_util.Json.t) list -> Riq_util.Json.t
val error : string -> Riq_util.Json.t
val is_ok : Riq_util.Json.t -> bool
val error_of : Riq_util.Json.t -> string

type address = Unix_socket of string
(** The daemon listens on a Unix socket, so only peers on the host that
    can open its path reach it. *)

val address_of_string : string -> address
(** Any string, [host:port] shapes included, is a socket path. *)

val address_to_string : address -> string

(** Message shapes of the serve daemon's wire protocol (framing lives in
    {!Wire}). A session opens with [hello] carrying the protocol
    {!version}, simulator revision stamp and cache format version; the
    daemon rejects a mismatched peer before decoding any marshalled
    payload, so the opaque marshalled jobs/outcomes only ever travel
    between binaries that agree on their layout.

    Submission is content-addressed: [submit] carries fingerprints only,
    the reply names the indices the daemon still [need]s (neither stored
    nor running), and [supply] carries just those jobs. The daemon
    re-fingerprints each supplied job and refuses a body whose key
    differs from the one submitted at its index. The request that leaves
    a ticket needing no more bodies is answered once the ticket
    completes, with [{ticket, sources, seconds}] and the outcomes as the
    frame's payload ({!outcomes_to_wire}). *)

open Riq_exp

val version : string
(** ["riq-serve/5"]. {!request_of_wire} refuses a [hello] of any other. *)

type klass = Interactive | Batch
(** The two queue classes: interactive sweeps ahead of nightly fuzz
    campaigns, with weighted fairness so neither starves (see
    {!Server}). *)

val klass_to_string : klass -> string

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
      (** The bodies of needed indices of [ticket], in [indices] order:
          [jobs] is the frame's payload, {!jobs_to_wire} of one array.
          Only the submitting connection may supply [ticket]. *)
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

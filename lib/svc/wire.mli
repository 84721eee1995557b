(** Length-prefixed JSON framing: every message between a client and the
    serve daemon is a 4-byte big-endian length followed by that many
    bytes of JSON. See DESIGN.md section 7 for the message catalogue. *)

exception Closed
(** Raised on EOF mid-frame — the peer went away. *)

exception Protocol_error of string
(** Malformed frame: oversized length, invalid JSON, bad hex. *)

val max_frame : int
(** Upper bound on a frame payload (64 MiB). *)

val send : Unix.file_descr -> Riq_util.Json.t -> unit
(** Write one whole frame (blocking). *)

val recv : Unix.file_descr -> Riq_util.Json.t
(** Read one whole frame (blocking). *)

val frame : Riq_util.Json.t -> bytes
(** The encoded frame bytes, for callers that buffer writes themselves. *)

val write_all : Unix.file_descr -> bytes -> unit

val to_hex : string -> string
val of_hex : string -> string
(** Transport encoding for opaque binary payloads (marshalled jobs and
    outcomes) carried inside JSON strings. *)

(** Length-prefixed framing: every message between a client and the serve
    daemon is a 4-byte big-endian body length followed by that many bytes
    of body, [JSON [| 0x00 | payload]]. The JSON printer escapes 0x00 and
    the parser rejects it, so the first 0x00 ends the JSON; a frame without
    a payload is plain length-prefixed JSON. See DESIGN.md section 7.1 for
    the message catalogue. *)

exception Closed
(** Raised on EOF mid-frame: the peer went away. *)

exception Protocol_error of string
(** Malformed frame: bad length or invalid JSON. *)

val max_frame : int
(** Upper bound on a frame body (64 MiB), JSON and payload together. *)

val frame : ?payload:string -> Riq_util.Json.t -> bytes
(** The encoded frame bytes, for callers that buffer writes themselves.
    Raises [Protocol_error] past {!max_frame}. *)

val send : ?payload:string -> Unix.file_descr -> Riq_util.Json.t -> unit
(** Write one whole frame (blocking). *)

val recv : Unix.file_descr -> Riq_util.Json.t * string option
(** Read one whole frame (blocking): its JSON and its payload, if any. *)

type reader
(** A connection's accumulation buffer, for a reader that must not block:
    bytes arrive by {!read} and leave as whole frames by {!take}. *)

val reader : unit -> reader

val read : reader -> Unix.file_descr -> int
(** One [Unix.read] of up to 64 KiB into the reader; 0 at end of file.
    Exceptions are [Unix.read]'s. *)

val take : reader -> (Riq_util.Json.t * string option, string) result option
(** Remove the first whole frame, split as {!recv} splits it: [None] while
    the reader holds less than one frame, [Error] for a whole frame whose
    JSON does not parse. Raises [Protocol_error] when the header announces
    a bad length. Taking every frame of one read costs time linear in the
    read's size. *)

val buffered : reader -> int
(** Bytes read and not yet taken. *)

val write_all : Unix.file_descr -> bytes -> unit

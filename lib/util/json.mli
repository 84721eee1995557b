(** Minimal JSON document tree and serializer (no external dependency) —
    enough for the machine-readable experiment exports. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Serialize; [indent] (default false) pretty-prints with two-space
    indentation and a trailing newline. NaN and infinities serialize as
    [null]; finite floats use the shortest digit string that round-trips. *)

val to_file : string -> t -> unit
(** Pretty-printed [to_string] written to [path]. *)

val max_depth : int
(** The deepest nesting of arrays and objects {!of_string} accepts (512). *)

val of_string : string -> (t, string) result
(** Parse one RFC 8259 JSON document (no trailing garbage) nested at most
    {!max_depth} deep; deeper input is an [Error] found at that depth, so
    its cost does not grow with its length. Numbers with no fraction or
    exponent that fit an OCaml [int] parse as [Int]; all others as
    [Float]. String escapes, including [\uXXXX] and surrogate pairs,
    decode to UTF-8 bytes. Errors carry the byte offset. *)

val of_string_exn : string -> t
(** [of_string], raising [Failure] on a parse error. *)

(** {2 Accessors} — shallow, [None]-on-shape-mismatch helpers for picking
    fields out of parsed documents (the wire protocol, test assertions). *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_int : t -> int option
val to_float_opt : t -> float option
(** [Int] widens to float; everything non-numeric is [None]. *)

val to_str : t -> string option
val to_list : t -> t list option

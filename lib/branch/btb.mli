(** Branch target buffer: a set-associative store of taken-branch targets
    (Table 1: 512 sets, 4-way). LRU replacement. *)

type t

val create : sets:int -> ways:int -> t

val lookup : t -> pc:int -> int option
(** Predicted target for the control instruction at [pc], updating LRU. *)

val lookup_target : t -> pc:int -> int
(** Allocation-free {!lookup}: the predicted target, or -1 on a miss. *)

val update : t -> pc:int -> target:int -> unit
(** Record (or refresh) the taken target. *)

val lookups : t -> int
val hits : t -> int
val updates : t -> int

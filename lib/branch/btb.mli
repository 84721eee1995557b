(** Branch target buffer: a set-associative store of taken-branch targets
    (Table 1: 512 sets, 4-way). LRU replacement. *)

type t

val create : sets:int -> ways:int -> t

val lookup_target : t -> pc:int -> int
(** Predicted target for the control instruction at [pc], or -1 on a
    miss; a hit refreshes the way's LRU stamp. *)

val update : t -> pc:int -> target:int -> unit
(** Record (or refresh) the taken target. *)

val lookups : t -> int

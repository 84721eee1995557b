(** Bimodal branch direction predictor: a table of 2-bit saturating
    counters indexed by the branch PC (Table 1: 2048 entries). *)

type t

val create : int -> t
(** [create entries]; [entries] must be a power of two. Counters start
    weakly not-taken (state 1), the SimpleScalar convention. *)

val entries : t -> int

val predict : t -> pc:int -> bool
(** True when the counter for [pc] predicts taken. Pure lookup. *)

val update : t -> pc:int -> taken:bool -> unit
(** Saturating increment/decrement toward the observed direction. *)

val counter : t -> pc:int -> int
(** Raw 2-bit state, for tests. *)

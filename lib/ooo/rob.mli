
(** Reorder buffer.

    A circular buffer of in-flight instructions in program order. Results
    live here until commit (P6-style renaming): the map table points
    logical registers at ROB indices. Misprediction recovery squashes the
    tail and then rebuilds the map table by scanning the surviving entries
    oldest-first — simpler than per-entry previous-mapping chains and
    immune to the stale-pointer hazard those create when a producer
    commits before its consumer is squashed.

    Entry records are allocated once and reused in place; an index returned
    by {!alloc} is valid until the entry commits or is squashed. The [seq]
    field disambiguates reallocation: consumers that hold an index across
    cycles must check that the sequence number still matches. *)

type entry = {
  mutable seq : int; (** global dynamic sequence number *)
  mutable pc : int;
  mutable wi : int; (** word index into the decoded side tables *)
  mutable completed : bool;
  mutable value_i : int; (** integer result; the FP result is {!value_f} *)
  mutable dest : int; (** logical destination register, or -1 *)
  mutable is_store : bool;
  mutable lsq_idx : int; (** LSQ slot for memory operations, or -1 *)
  mutable is_ctrl : bool;
  mutable pred_npc : int; (** next PC predicted at fetch *)
  mutable actual_npc : int; (** computed at execute *)
  mutable taken : bool;
  mutable ras_ck : int; (** predictor checkpoint for recovery *)
  mutable from_reuse : bool; (** dispatched by the reuse engine *)
}

type t

val create : int -> t
val count : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val alloc : t -> int
(** Claim the tail entry and return its index; fields must be filled by the
    caller. Raises [Failure] when full. *)

val entry : t -> int -> entry

val value_f : t -> int -> float
(** FP result of the entry at an index. Kept in a float array beside the
    entries, so every entry field is an immediate and writing a result
    allocates nothing. *)

val set_value_f : t -> int -> float -> unit

val head : t -> int
(** Index of the oldest entry. Meaningless when empty. *)

val pop_head : t -> unit
(** Retire the oldest entry. *)

val squash_after : t -> seq:int -> f:(int -> entry -> unit) -> unit
(** Remove every entry younger than [seq] (strictly), youngest first,
    calling [f idx entry] on each before it is freed. *)

val iter_youngest_first : t -> (int -> entry -> unit) -> unit
val iter_oldest_first : t -> (int -> entry -> unit) -> unit

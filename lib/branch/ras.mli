(** Return address stack (Table 1: 8 entries), with top-of-stack
    checkpointing for branch-misprediction repair.

    The stack is circular: pushing beyond capacity silently overwrites the
    oldest entry, and popping an empty stack returns [-1]. Checkpoints
    capture only the top-of-stack index (the standard low-cost repair);
    contents clobbered by wrong-path calls are not restored, which models
    real RAS corruption behaviour. *)

type t

val create : int -> t
(** [create size]; size must be positive. *)

val push : t -> int -> unit
val pop : t -> int
(** The top return address, or [-1] when the stack is empty (return
    addresses are never negative); no option is allocated per return. *)

val checkpoint : t -> int
(** Opaque TOS snapshot to be taken before a speculative control
    instruction alters the stack. *)

val restore : t -> int -> unit

val depth : t -> int
(** Current number of live entries (saturates at capacity). *)

val pushes : t -> int
val pops : t -> int

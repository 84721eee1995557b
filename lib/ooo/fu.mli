open Riq_isa

(** Function-unit pool: Table 1's 4 IALU, 1 IMULT, 4 FPALU, 1 FPMULT, plus
    the data-cache ports used by loads and stores for address generation.

    Pipelined units accept a new operation every cycle; non-pipelined ones
    (divides, square root) block their unit for the operation's full
    latency. [FU_none] (nop/halt) always succeeds. *)

type t

val create :
  n_ialu:int -> n_imult:int -> n_fpalu:int -> n_fpmult:int -> n_memport:int -> t

val acquire : t -> Insn.fu_class -> now:int -> latency:int -> pipelined:bool -> bool
(** Reserve a unit of the class for an operation starting this cycle;
    false when all units of the class are busy. *)

val issued_of : t -> Insn.fu_class -> int
(** Total operations accepted per class (power/statistics). *)

open Riq_isa
open Riq_asm
open Riq_mem

(** Functional (in-order, one instruction at a time) reference simulator.

    This is the golden model: it defines the architectural meaning of a
    program. The out-of-order simulators are validated by running the same
    program on both and comparing {!arch_state}. *)

type t

type stop = Halted | Insn_limit | Bad_pc of int

val create : Program.t -> t
(** Load the program into a fresh memory image; PC at the entry point,
    registers zeroed, [sp] initialised to {!default_sp}. *)

val default_sp : int
(** Initial stack pointer (grows down). *)

val step : t -> stop option
(** Execute one instruction; [Some reason] when the machine stopped. *)

val run : ?limit:int -> t -> stop
(** {!step} until halt or until [limit] instructions (default 100
    million); the limit is checked first, so a halt that is exactly the
    [limit]th instruction reports [Insn_limit]. *)

val pc : t -> int
val insn_count : t -> int
val reg : t -> Reg.t -> int
(** Integer register value (canonical signed 32-bit view). *)

val freg : t -> Reg.t -> float
val mem : t -> Store.t

type arch_state = {
  final_pc : int;
  instructions : int;
  int_regs : int array; (** 32 entries *)
  fp_regs : float array; (** 32 entries *)
  memory : int array;
      (** the non-zero words as flat (address, word) pairs in ascending
          address order, [[| a0; w0; a1; w1; ... |]] ({!Store.snapshot}):
          two heap words per non-zero word *)
}

val arch_state : t -> arch_state
(** Snapshot for differential comparison. *)

val equal_arch : arch_state -> arch_state -> bool
(** Architectural equality: registers, memory and instruction count (the
    final PC is included; speculative execution must not leak). *)

val pp_arch_diff : Format.formatter -> arch_state -> arch_state -> unit
(** Human-readable description of the first 8 differences, one line each,
    the left state's value first: final PC, instruction count, registers
    in index order, then memory in ascending address order — a word on
    both sides as [mem[ADDR]: L vs R], a word on one side only as
    [mem[ADDR]: left only (L)] or [mem[ADDR]: right only (R)]. *)

val diff_string : arch_state -> arch_state -> string
(** {!pp_arch_diff} rendered to a single plain string — what the
    experiment runner and the fuzzer attach to a mismatch outcome. *)

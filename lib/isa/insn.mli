(** RIQ32 instruction set.

    A MIPS-like 32-bit RISC ISA, large enough to compile the paper's
    array-intensive loop kernels: integer ALU, multiply/divide, single-
    precision floating point, word loads/stores for both files, the six MIPS
    compare-with-zero / compare-two-registers branches, direct and indirect
    jumps and calls, and a [halt] that terminates simulation.

    Branch and jump offsets are expressed in instruction words. A
    conditional branch at address [pc] with offset [off] targets
    [pc + 4 + 4*off] (MIPS convention, but with no delay slots — RIQ32 has
    none). Direct jumps carry an absolute word index: [j tgt] jumps to byte
    address [4*tgt]. *)

type alu_op =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Nor
  | Slt  (** set on signed less-than *)
  | Sltu (** set on unsigned less-than *)

type shift_op = Sll | Srl | Sra

type fpu_op =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fsqrt (** unary; the [ft] field is ignored *)
  | Fneg  (** unary *)
  | Fabs  (** unary *)
  | Fmov  (** unary *)

type fcmp_op = Feq | Flt | Fle

val fpu_unary : fpu_op -> bool
(** Whether the operation uses only its [fs] operand. *)

type cond = Beq | Bne | Blez | Bgtz | Bltz | Bgez

type t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t (** [rd, rs, rt] *)
  | Alui of alu_op * Reg.t * Reg.t * int
      (** [rt, rs, imm16]; the immediate is sign-extended for
          [Add]/[Slt]/[Sltu], zero-extended for the bitwise operations.
          [Sub]/[Nor] have no immediate form. *)
  | Shift of shift_op * Reg.t * Reg.t * int (** [rd, rt, shamt] *)
  | Shiftv of shift_op * Reg.t * Reg.t * Reg.t (** [rd, rt, rs]; shift by rs&31 *)
  | Lui of Reg.t * int (** [rt, imm16] *)
  | Mul of Reg.t * Reg.t * Reg.t
  | Div of Reg.t * Reg.t * Reg.t (** signed; division by zero yields 0 *)
  | Fpu of fpu_op * Reg.t * Reg.t * Reg.t (** [fd, fs, ft] *)
  | Fcmp of fcmp_op * Reg.t * Reg.t * Reg.t (** [rd(int), fs, ft] *)
  | Cvtsw of Reg.t * Reg.t (** [fd, rs]: int register to float *)
  | Cvtws of Reg.t * Reg.t (** [rd, fs]: float to int (truncation) *)
  | Lw of Reg.t * Reg.t * int (** [rt, base, offset-bytes] *)
  | Lb of Reg.t * Reg.t * int (** sign-extending byte load *)
  | Lbu of Reg.t * Reg.t * int (** zero-extending byte load *)
  | Lh of Reg.t * Reg.t * int (** sign-extending halfword load *)
  | Lhu of Reg.t * Reg.t * int (** zero-extending halfword load *)
  | Sw of Reg.t * Reg.t * int
  | Sb of Reg.t * Reg.t * int (** stores the low 8 bits of [rt] *)
  | Sh of Reg.t * Reg.t * int (** stores the low 16 bits of [rt] *)
  | Lwf of Reg.t * Reg.t * int (** l.s: [ft, base, offset-bytes] *)
  | Swf of Reg.t * Reg.t * int
  | Br of cond * Reg.t * Reg.t * int
      (** [rs, rt, offset-words]; [Blez]..[Bgez] ignore [rt]. *)
  | J of int (** absolute word index *)
  | Jal of int (** call: writes [pc+4] to [r31] *)
  | Jr of Reg.t (** indirect jump; [jr r31] is the return idiom *)
  | Jalr of Reg.t * Reg.t (** [rd, rs] *)
  | Nop
  | Halt

(** Functional-unit class, used by the issue logic and the power model. *)
type fu_class =
  | FU_none (** nop/halt: no execution resource *)
  | FU_ialu
  | FU_imult (** integer multiply and divide *)
  | FU_fpalu
  | FU_fpmult (** FP multiply, divide, sqrt *)
  | FU_mem (** address generation + cache port *)

type kind =
  | K_int
  | K_fp
  | K_load
  | K_store
  | K_branch (** conditional branch *)
  | K_jump (** unconditional direct jump *)
  | K_call (** jal / jalr *)
  | K_return (** jr r31 *)
  | K_ijump (** jr (not return) *)
  | K_nop
  | K_halt

val kind : t -> kind
val fu : t -> fu_class

val latency : t -> int
(** Execution latency in cycles, excluding cache access time for memory
    operations (SimpleScalar-like defaults: ialu 1, imul 3, idiv 20,
    fpalu 2, fpmul 4, fpdiv 12, fpsqrt 24, agen 1). *)

val pipelined : t -> bool
(** Whether the functional unit accepts a new operation every cycle while
    executing this one (divides are not pipelined). *)

val sources : t -> Reg.t list
(** Logical source registers, [r0] excluded (it is never a dependence). *)

val dest : t -> Reg.t option
(** Logical destination register; [None] for stores, branches, [r0] writes. *)

val access_bytes : t -> int
(** Memory footprint of a load or store: 1, 2 or 4 bytes. Raises
    [Invalid_argument] for non-memory instructions. *)

val is_ctrl : t -> bool
(** True for every instruction that can redirect the PC. *)

val ctrl_target : t -> pc:int -> int option
(** Statically-known taken target (byte address) for branches and direct
    jumps; [None] for indirect jumps. *)

val to_string : t -> string
(** Assembler syntax, e.g. ["add r3, r1, r2"], ["lw r4, 16(r29)"],
    ["beq r1, r2, -12"]. *)

val equal : t -> t -> bool

open Riq_asm

(** RIQ32 code generation for the loop-nest IR.

    Register conventions: [r1] is the assembler temporary, [r2..r15] the
    integer expression-temporary pool, [r16..r28] hold loop indices and
    integer scalars, [f0..f15] are float temporaries and [f16..f31] float
    scalars. Scalars that do not fit their register pool are spilled to
    memory words and reloaded around each use. Arrays live in the data
    segment, row-major, with `Index_pattern` initialisation materialised at
    load time (no runtime initialisation code).

    The generator performs just enough strength reduction to keep loop
    bodies realistic (constant folding on subscripts, shifts for
    power-of-two multiplies); it deliberately does {e not} hoist array base
    addresses or subscript computations, mirroring the modest code quality
    of the era's compilers at [-O1] that the paper's loop-size discussion
    assumes. *)

type loop_info = {
  li_var : string;
  li_depth : int; (** 0 = outermost *)
  li_body_insns : int; (** static instructions from head label through the backward branch *)
  li_innermost : bool; (** no loop nested inside this one *)
}

val compile : Ir.program -> Program.t
(** Raises [Invalid_argument] if [Ir.validate] rejects the program. *)

val compile_info : Ir.program -> Program.t * loop_info list
(** Also report the static size of every loop body — the quantity the
    paper's capturability condition compares against the issue-queue
    size. *)

open Riq_isa
open Riq_asm

(** Basic-block control-flow graph over a decoded {!Program.t}.

    Blocks partition the text segment: a leader starts at the entry point,
    at every branch/jump target, and at every instruction following a
    control transfer. Edges follow the statically-known control flow:

    - conditional branches get a taken edge and a fallthrough edge;
    - direct jumps get their target edge;
    - direct calls ([jal]) get an edge to the callee entry {e and} to the
      fallthrough (the return point), so reachability flows through
      call sites without an interprocedural summary;
    - indirect jumps ([jr]/[jalr]) have no statically-known successors —
      the block is marked {!field-b_indirect} instead — except for the
      assembler's constant-address idiom [la rX, L; jr rX] with the
      [lui]/[ori] pair in the same block, which resolves to a direct edge
      to [L];
    - [halt] ends the program (no successors).

    The graph deliberately mirrors what the decode stage of the simulated
    processor can know: targets of indirect transfers are opaque, exactly
    as they are to the paper's loop detector. *)

type block = {
  b_id : int;
  b_first : int; (** byte address of the first instruction *)
  b_last : int; (** byte address of the last instruction *)
  mutable b_succs : int list; (** successor block ids, deterministic order *)
  mutable b_preds : int list;
  b_indirect : bool;
      (** ends in a [jr]/[jalr] whose target is unknown (a resolved
          [la; jr] pair clears this) *)
  b_call : bool; (** ends in [jal]/[jalr] (procedure call) *)
}

type t = {
  program : Program.t;
  blocks : block array; (** ordered by address *)
  entry : int; (** block id containing [Program.entry] *)
}

val build : Program.t -> t
(** Decode the text segment into a CFG. Raises [Invalid_argument] when the
    entry point lies outside the text segment. *)

val n_blocks : t -> int
val block : t -> int -> block

val block_at : t -> int -> block option
(** Block whose address range contains the given byte address. *)

val n_insns : block -> int

val insns : t -> block -> (int * Insn.t) list
(** The [(pc, instruction)] sequence of a block, in address order. *)

val last_insn : t -> block -> Insn.t

val reverse_postorder : t -> int array
(** Block ids in reverse postorder of a DFS from the entry block.
    Unreachable blocks are appended after the reachable ones (in address
    order) so dataflow passes still visit them. *)

val reachable : t -> bool array
(** Per-block flag: reachable from the entry by CFG edges. *)

open Riq_isa

(** Backward logical-register liveness over a {!Cfg.t}.

    Computes, for every basic block, the set of logical registers live on
    entry and exit, and exposes a per-instruction query. This is the
    static derivation of the paper's per-entry {e logical register list}:
    the registers live around a buffered loop body are exactly the names
    the modified issue queue must keep renaming on every reused pass.

    Register sets cover the full flat namespace of {!Reg} (64 names) as
    [Int64] bitmasks. Calls are handled through the CFG's call edges (the
    callee's live-in flows into the call site alongside the return path),
    so no interprocedural summary is needed. Blocks ending in indirect
    transfers ([jr]/[jalr]) have no static successors; [jr r31] is a
    return, after which the caller-visible scalar pools ([r16]-[r28],
    [f16]-[f31]), the stack pointer and the link register are
    conservatively live.

    The sets are the least fixpoint of a backward {!Dataflow.Make} solve
    over [Int64] bitsets (join is [logor]), so liveness gets the
    solver's monotonicity and stability checks. *)

type t

val compute : Cfg.t -> t

val live_in : t -> int -> Int64.t
(** Live set at entry of a block id. *)

val live_out : t -> int -> Int64.t

val live_before : t -> pc:int -> Int64.t
(** Live set immediately before the instruction at [pc]. Raises
    [Invalid_argument] outside the text segment. *)

val mem : Int64.t -> Reg.t -> bool
val cardinal : Int64.t -> int

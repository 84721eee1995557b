open Riq_isa

(** Constant / value-range propagation over a {!Cfg.t}.

    Each integer register is abstracted to an interval: [Bot] (no
    execution reaches this point yet), [Const c], [Range (lo, hi)]
    (inclusive, signed 32-bit views), or [Top]. Constant folding calls
    the {e same} {!Riq_interp.Semantics} functions as the simulators, so
    a folded constant can never disagree with a run; interval arithmetic
    goes to [Top] whenever a bound could leave the 32-bit range, which
    is exactly when the machine would wrap.

    Soundness boundaries, chosen to match what decode-time hardware
    could assume:
    - calls havoc every register (both the return point and the callee
      entry see [Top]), so no interprocedural summary is needed;
    - returns are assumed to follow call discipline (a [jr r31] goes to
      the fallthrough of some call site, which the call edges + havoc
      already over-approximate);
    - any {e unresolved} computed jump ([jr] beyond the [la; jr] idiom)
      or indirect call ([jalr]) could land anywhere, so its presence
      degrades every query in the program to [Top] ({!tainted}). *)

type value = Bot | Const of int | Range of int * int | Top

type t

val analyze : Cfg.t -> t

val tainted : t -> bool
(** The program contains an unresolved indirect transfer; every query
    answers [Top]. *)

val value_at : t -> pc:int -> Reg.t -> value
(** Abstract value of a register just {e before} executing [pc].
    [Top] outside the text segment. *)

val value_into : t -> block:int -> from:int list -> Reg.t -> value
(** Abstract value of a register flowing into [block] along the edges
    from the listed predecessor blocks only — the loop-entry value when
    [from] is a loop head's outside predecessors. With [from = []] the
    value is the boundary fact if [block] is the CFG entry, else [Bot]
    (no such edge). *)

val const : value -> int option

val to_string : value -> string

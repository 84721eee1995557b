open Riq_isa

(** The unified issue queue, including the paper's reuse augmentations.

    The queue is a {e collapsing} structure: slots [0 .. count-1] of
    {!slots} are valid and ordered oldest-first (program order of their
    current dynamic instances). Conventional entries are marked dead when
    they issue and are removed by {!compact} (one pass per cycle); entries
    with the {e classification bit} ({!field-reusable}) set survive issue —
    their {e issue-state bit} ({!field-issued}) is set instead, exactly as
    in Section 2.2 of the paper.

    Operand values are captured into the slot (at dispatch for
    already-ready operands, at {!wakeup} otherwise), so a slot never reads
    a ROB entry after issue — necessary because P6-style ROB slots are
    recycled at commit.

    The per-slot [pred_npc] field holds, for control instructions, the
    next-PC prediction that was made for the buffered instance; reuse-mode
    re-dispatch uses it as the paper's static prediction. *)

type slot = {
  mutable seq : int; (** current dynamic instance *)
  mutable rob_idx : int;
  mutable pc : int;
  mutable wi : int;
      (** decoded word index ([(pc - text_base) / 4]); the slot's pointer
          into the decoded side tables *)
  mutable fu : Insn.fu_class;
  mutable lat : int; (** execution latency, cached at rename *)
  mutable pipe : bool; (** functional unit pipelined for this op *)
  mutable is_mem : bool;
  mutable is_store : bool;
  mutable src1_tag : int; (** ROB index the operand waits on; -1 = ready *)
  mutable src1_i : int;
  mutable src1_f : float;
  mutable src2_tag : int;
  mutable src2_i : int;
  mutable src2_f : float;
  mutable issued : bool; (** issue-state bit *)
  mutable reusable : bool; (** classification bit *)
  mutable dead : bool; (** removed at the next {!compact} *)
  mutable pred_npc : int;
  mutable w1_next : slot;
      (** intrusive per-tag waiter-list link for the first source operand
          (the set {!wakeup} walks for that tag); self-linked = not on a
          list. Maintained by the queue operations — callers change issue
          state through {!enqueue}/{!mark_issued}/{!mark_renamed}/{!kill},
          never by writing [issued]/[dead] directly. *)
  mutable w1_prev : slot;
  mutable w2_next : slot;  (** waiter-list link, second source operand *)
  mutable w2_prev : slot;
  mutable r_next : slot;
      (** intrusive ready-ring link (unissued live slots whose operands
          are select-ready — the set the issue stage walks); self-linked =
          not in the ring. A store whose address operand is ready but
          whose data is still in flight sits on both a waiter list and
          the ready ring. *)
  mutable r_prev : slot;
}

type t

val create : int -> t
val size : t -> int
val count : t -> int
val free : t -> int
val is_full : t -> bool

val slots : t -> slot array
(** The backing array; only indices [0 .. count-1] are meaningful. *)

val dispatch : t -> slot
(** Claim the next slot (appended at the tail, preserving age order) and
    return it for the caller to fill. The slot joins no ring yet: call
    {!enqueue} once the source tags are resolved. Raises [Failure] when
    full. *)

val enqueue : t -> slot -> unit
(** Classify a freshly filled slot into the wait and/or ready rings based
    on its current source tags. Must be called exactly once after
    {!dispatch} (once the tags are known); {!mark_renamed} performs it
    implicitly. *)

val ready : t -> slot
(** Sentinel of the ready ring: the select-ready unissued slots are
    [r_next .. ] until the sentinel recurs. The issue stage walks this
    ring instead of scanning the whole array. *)

val mark_issued : t -> slot -> unit
(** Set the issue-state bit and leave both rings. *)

val mark_renamed : t -> slot -> unit
(** Reuse-mode partial update: an issued buffered slot becomes a fresh
    unissued in-flight instance and rejoins the rings according to the
    source tags the caller just refreshed. *)

val kill : t -> slot -> unit
(** Mark a slot dead (removed by the next {!compact}) and drop it from
    both rings. *)

val wakeup : t -> tag:int -> value_i:int -> value_f:float -> unit
(** Result broadcast: every un-issued slot waiting on [tag] captures the
    value and marks that operand ready. *)

val compact : t -> int
(** Remove dead slots, preserving order; returns the number removed (the
    power model charges the collapse writes). *)

val reuse_ptr : t -> int
(** The paper's reuse pointer: index of the next buffered slot to
    re-dispatch in Code Reuse state. Maintained across {!compact}. *)

val set_reuse_ptr : t -> int -> unit

val first_reusable : t -> int
(** Index of the oldest slot with the classification bit set, or -1. *)

val clear_classification : t -> unit
(** Revoke support: for every reusable slot, clear the classification bit;
    slots whose instance has already issued are marked dead (they exist
    only for future reuse, which is being cancelled). *)

val clear : t -> unit
(** Empty the queue outright (no per-slot power charges) — the end-of-run
    drain once the halt instruction commits. *)

val squash_after : t -> seq:int -> unit
(** Conventional misprediction recovery: conventional slots younger than
    [seq] are marked dead. Reusable slots younger than [seq] are {e reset
    to issued} — their squashed in-flight instance disappears, but the
    buffered instruction itself stays available for reuse (or for the
    revoke that typically follows). *)

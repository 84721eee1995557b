open Riq_isa

(** The unified issue queue, including the paper's reuse augmentations.

    The queue is a {e collapsing} structure over a fixed pool of slots.
    Each slot has a stable id (its index in {!slots}); the queue's age
    order is a permutation of ids, and {!at} [i] is the [i]-th oldest slot
    (program order of their current dynamic instances). Conventional
    entries are marked dead when they issue; entries with the
    {e classification bit} ({!field-reusable}) set survive issue — their
    {e issue-state bit} ({!field-issued}) is set instead, exactly as in
    Section 2.2 of the paper.

    Occupancy and positions are kept apart. The occupancy ({!count},
    {!free}, {!is_full}) is the live slots plus the slots killed since the
    last {!end_cycle}: a killed entry frees its slot at the end of its
    cycle. Positions ({!at}, {!reuse_ptr}, {!first_reusable}) are exact —
    every dead slot is the current cycle's kill, so [at] covers
    [0 .. count-1] — after an {!end_cycle} [~positions:true] (a
    {!compact}), until the next [~positions:false] step that had kills
    to retire. Between a lazy step and the next walk, dead slots keep
    their positions; {!dispatch} walks on its own when every position is
    taken.

    Operand values are captured into the slot (at dispatch for
    already-ready operands, at {!wakeup} otherwise), so a slot never reads
    a ROB entry after issue — necessary because P6-style ROB slots are
    recycled at commit. Integer operand values are slot fields; FP
    operand values live in the queue, read with {!src1_f}/{!src2_f}.

    The per-slot [pred_npc] field holds, for control instructions, the
    next-PC prediction that was made for the buffered instance; reuse-mode
    re-dispatch uses it as the paper's static prediction.

    Every slot field is an immediate and the waiter and ready lists are
    [int] links indexed by id, so the cycle loop's stores into the queue
    pay no write barrier. *)

type slot = {
  id : int; (** stable: the slot's index in {!slots} *)
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
  mutable src1_tag : int;
      (** ROB index the operand waits on; -1 = ready. From {!enqueue} (or
          {!mark_renamed}) until the slot issues or dies, a non-negative
          tag means the operand is on that tag's waiter list (the set
          {!wakeup} walks). Tags change only while a slot is off the lists
          — through {!set_src}, before {!enqueue} or {!mark_renamed} — and
          callers change issue state through
          {!enqueue}/{!mark_issued}/{!mark_renamed}/{!kill}, never by
          writing [issued]/[dead] directly. *)
  mutable src1_i : int;
  mutable src2_tag : int; (** second source operand, as [src1_tag] *)
  mutable src2_i : int;
  mutable issued : bool; (** issue-state bit *)
  mutable reusable : bool; (** classification bit *)
  mutable dead : bool; (** leaves the occupancy at the next {!end_cycle} *)
  mutable pred_npc : int;
}

type t

val create : int -> t

val count : t -> int
(** Occupancy: live slots plus this cycle's kills. *)

val free : t -> int
val is_full : t -> bool

val slots : t -> slot array
(** The slot pool, indexed by id. Which slots are valid, and their age
    order, is {!at}'s business. *)

val at : t -> int -> slot
(** [at t i] is the [i]-th oldest slot, [0 <= i < count t], while
    positions are exact (see above). *)

val src1_f : t -> slot -> float
(** The slot's captured FP value of its first source operand. *)

val src2_f : t -> slot -> float

val set_src : t -> slot -> port:int -> tag:int -> value_i:int -> value_f:float -> unit
(** Rename one source operand ([port] 0 = first, 1 = second): its tag
    ([-1] = ready) and captured values. Only while the slot is off the
    lists: between {!dispatch} and {!enqueue}, or on an issued slot before
    {!mark_renamed}. *)

val dispatch : t -> slot
(** Claim the next slot (appended at the tail, preserving age order) and
    return it for the caller to fill. The slot joins no list yet: call
    {!enqueue} once the source tags are resolved. Raises [Failure] when
    full. When the occupancy has room but every position holds a live or
    dead slot, it first removes the dead ones from the age order. *)

val enqueue : t -> slot -> unit
(** Classify a freshly filled slot onto the waiter lists and/or the ready
    list based on its current source tags. Must be called exactly once
    after {!dispatch} (once the tags are known); {!mark_renamed} performs
    it implicitly. *)

val ready_first : t -> int
(** Id of the first slot on the ready list, or [-1]. The ready list holds
    the select-ready unissued slots, in no particular order; the issue
    stage walks it instead of scanning the whole queue. *)

val ready_next : t -> int -> int
(** The id after [id] on the ready list, or [-1]. *)

val waiters : t -> tag:int -> (slot * int) list
(** The operands waiting on [tag], as (slot, port) pairs in list order —
    for tests and invariant checks, not the cycle loop. *)

val mark_issued : t -> slot -> unit
(** Set the issue-state bit and leave all lists. *)

val mark_renamed : t -> slot -> unit
(** Reuse-mode partial update: an issued buffered slot becomes a fresh
    unissued in-flight instance and rejoins the lists according to the
    source tags the caller just refreshed. *)

val kill : t -> slot -> unit
(** Mark a slot dead and drop it from all lists. It counts in the
    occupancy until the next {!end_cycle}. *)

val wakeup : t -> tag:int -> value_i:int -> value_f:float -> unit
(** Result broadcast: every un-issued slot waiting on [tag] captures the
    value and marks that operand ready. *)

val end_cycle : t -> positions:bool -> int
(** The cycle's last step: drop the slots killed since the previous step
    from the occupancy and return their number (the power model charges
    the collapse writes). With [~positions:true] it also removes every
    dead slot from the age order, preserving the order of the rest, so
    positions are exact again; with [false] the dead slots keep their
    positions. Slot ids and the lists are untouched. *)

val compact : t -> int
(** [end_cycle t ~positions:true]: when every step is a [compact], the
    number returned is the number of dead slots removed. *)

val reuse_ptr : t -> int
(** The paper's reuse pointer: age position (an {!at} index) of the next
    buffered slot to re-dispatch in Code Reuse state. Every walk of the
    age order keeps it on the slot it named. *)

val set_reuse_ptr : t -> int -> unit

val first_reusable : t -> int
(** Age position of the oldest slot with the classification bit set, or
    -1. *)

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

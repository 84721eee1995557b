open Riq_isa

(** Dynamic loop cache, after Lee, Moyer and Arends (ISLPED 1999) — the
    related-work baseline the paper positions itself against.

    A small fetch-side instruction buffer with a three-state controller:
    a taken {e short backward branch} (span within the cache capacity)
    triggers {e Fill}; if the same branch is taken again once the body has
    been captured, the controller goes {e Active} and the fetch unit reads
    instructions from the loop cache instead of the L1 instruction cache.
    Any control-flow departure from the loop (the branch falling through,
    a different taken branch, a pipeline redirect) returns to {e Idle}.

    Unlike the paper's reusable-instruction issue queue, the loop cache
    sits {e before} decode: it saves instruction-cache energy only —
    branch prediction and decode keep running every cycle. The comparison
    experiment (`riq_sim fig related`) quantifies exactly this gap. *)

type state = Idle | Fill | Active

type t

val create : int -> t
(** [create capacity] in instructions; capacity must be at least 4. *)

val state : t -> state

val serving : t -> pc:int -> bool
(** Whether the instruction at [pc] is supplied by the loop cache this
    cycle (Active and within the captured loop). *)

val on_fetch_decoded :
  t -> pc:int -> kind:Insn.kind -> static_target:int -> pred_npc:int -> unit
(** Advance the controller with one fetched instruction, given by its
    pre-decoded kind and statically-known taken target ([-1] = none), and
    the next-PC prediction made for it. *)

val reset : t -> unit
(** Pipeline redirect (misprediction recovery): back to Idle. *)

(** {2 Statistics} *)

val supplies : t -> int
(** Instructions supplied from the buffer (L1I accesses avoided). *)

val activations : t -> int

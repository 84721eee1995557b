open Riq_asm
open Riq_mem
open Riq_ooo
open Riq_interp

(** The modelled processor: a 4-wide out-of-order superscalar with the
    pipeline of Figure 1 (Fetch, Decode, Rename, Queue, Issue, RegRead,
    Execute, WriteBack, Commit) and, when [Config.reuse_enabled] is set,
    the paper's reusable-instruction issue queue:

    - loop detection at decode: the Section 2.1 check
      ({!Decoded.loop_span}) on the pre-decoded side tables,
    - Loop Buffering with the multiple-iteration strategy of Section 2.2.1
      and the procedure-call handling of Section 2.2.2,
    - the non-bufferable loop table of Section 2.2.3,
    - Code Reuse with front-end gating, reuse-pointer re-dispatch into
      rename, and static in-loop branch prediction (Section 2.4),
    - revoke and misprediction recovery (Section 2.5).

    Power is accounted cycle-by-cycle through {!Riq_power.Account}.

    {2 Observability}

    The processor is the only producer of what a run reports about
    itself ({!Riq_obs}). [create ?tracer] streams its events to the
    tracer: the Figure 2 states as "loop-buffering" and "code-reuse"
    spans, instants from the loop detector, the NBLT and the recovery
    path, and periodic [ipc] / [occupancy] / [power] counter tracks.
    [create ?sample_stride] makes it record a time series of windowed
    IPC, IQ/ROB/LSQ occupancy, per-{!Riq_power.Component.group} power and
    total power in its own {!sampler}. Both default to off and the
    default path costs one dead branch per emission site, so untraced
    simulations are bit-identical to traced ones. *)

type t

val create :
  ?tracer:Riq_obs.Tracer.t -> ?sample_stride:int -> Config.t -> Program.t -> t
(** [sample_stride] is the sampler's initial period in cycles; the
    counter tracks follow it, or every 64 cycles when it is absent.
    Raises [Invalid_argument] when it is below 1. *)

type stop = Halted | Cycle_limit

val run : ?cycle_limit:int -> t -> stop
(** Simulate until the [halt] instruction commits (default limit 200
    million cycles). A halt inside Loop Buffering or Code Reuse ends that
    state's span at the final cycle, so the trace's spans balance. *)

val step_cycle : t -> unit
(** Advance one cycle; exposed for the pipeline unit tests and the
    example that traces state-machine transitions. *)

val halted : t -> bool

(** {2 Results} *)

val cycles : t -> int
val committed : t -> int
val ipc : t -> float
val gated_cycles : t -> int
(** Cycles spent in Code Reuse state with the front-end gated. *)

val occupancy : t -> int * int * int
(** Current (issue queue, ROB, LSQ) occupancy — for pipeline viewers and
    the sampler. Once {!run} returns [Halted] the queues have been drained
    (anything younger than the halt is wrong-path), so this reads
    (0, 0, 0). *)

val sampler : t -> Riq_obs.Sampler.t option
(** Present when {!create} was given a [sample_stride]. *)

val arch_state : t -> Machine.arch_state
(** Architectural snapshot in the reference simulator's format, for
    differential testing against {!Riq_interp.Machine}. *)

(** Per-loop decision record of the dynamic reuse machinery, keyed by the
    loop-ending instruction's pc (the detector's and the NBLT's key).
    Queryable after a run to compare against the static bufferability
    pass ([Riq_analysis.Bufferability]). A reused commit goes to the
    smallest record whose window holds its pc; of two windows of equal
    span, the first logged wins. *)
type loop_decision = {
  ld_head : int; (** byte address of the loop's first instruction *)
  ld_tail : int; (** byte address of the backward transfer *)
  ld_span : int;
  mutable ld_detections : int; (** detector hits at this tail *)
  mutable ld_nblt_filtered : int; (** detections suppressed by the NBLT *)
  mutable ld_attempts : int; (** buffering attempts started *)
  mutable ld_revokes : int;
  mutable ld_rv_inner : int; (** [ld_revokes] split by {!Reuse_state.revoke_cause} *)
  mutable ld_rv_left : int;
  mutable ld_rv_overflow : int;
  mutable ld_rv_mispredict : int;
  mutable ld_nblt_registered : int; (** revokes that registered in the NBLT *)
  mutable ld_promotions : int; (** times the loop reached Code Reuse *)
  mutable ld_reuse_committed : int;
      (** committed instructions this loop supplied from the queue *)
}

val loop_decisions : t -> loop_decision list
(** All loops the detector ever flagged, sorted by tail address. *)

val revokes : loop_decision -> Reuse_state.revoke_cause -> int
(** The loop's revokes of one cause (its [ld_rv_*] counter). *)

val account : t -> Riq_power.Account.t
val hierarchy : t -> Hierarchy.t
val reuse_state : t -> Reuse_state.t
val loopcache : t -> Loopcache.t option
(** Present when [Config.loop_cache_entries > 0] (related-work baseline). *)

val config : t -> Config.t

type stats = {
  cycles : int;
  committed : int;
  ipc : float;
  gated_cycles : int;
  gated_fraction : float;
  branches : int;
  mispredicts : int;
  loads : int;
  stores : int;
  reuse_dispatches : int; (** instructions supplied by the issue queue *)
  reuse_committed : int; (** committed instructions that came from reuse *)
  buffer_attempts : int;
  revokes : int;
  promotions : int;
  reuse_exits : int;
  avg_power : float;
  icache_accesses : int;
  icache_misses : int;
  dcache_accesses : int;
  dcache_misses : int;
  skipped_cycles : int;
  ffwd_iterations : int;
      (** Always 0. [skipped_cycles] and [ffwd_iterations] counted the work
          of two removed fast paths (DESIGN.md §9.5). No report or sweep
          document carries them; they stay only because the benchmark
          under [perfledger/] reads them, until that benchmark drops them. *)
}

val stats : t -> stats

open Riq_mem
open Riq_branch

(** Per-access energy model, Wattch-style.

    Energies are computed in arbitrary consistent units ("pJ") from
    structure geometry, so they scale when a sweep changes the issue-queue
    size or a cache configuration. The absolute coefficients were calibrated
    once so that the baseline machine's activity-weighted breakdown matches
    the published Wattch distribution for an R10000-class core (clock about
    a quarter of total power, L1 caches about a fifth, the
    window/rename/ROB complex about a fifth, ...). The paper reports only
    relative savings, which depend on this breakdown and on which accesses
    are gated, not on absolute Joules.

    Idle energies implement Wattch's cc3 conditional-clocking style: a
    structure with no access in a cycle still draws 10 % of its nominal
    per-cycle maximum. *)

type geometry = {
  iq_entries : int;
  rob_entries : int;
  lsq_entries : int;
  fetch_width : int;
  issue_width : int;
  icache : Cache.config;
  dcache : Cache.config;
  l2 : Cache.config;
  itlb : Cache.config;
  dtlb : Cache.config;
  bpred : Predictor.config;
  nblt_entries : int;
  l0_icache : Cache.config option;
      (** optional filter cache (related-work baseline) *)
  loop_cache_entries : int; (** 0 = no loop cache (related-work baseline) *)
}

val baseline_geometry : geometry
(** Table 1 of the paper (64-entry issue queue). *)

type t

val create : geometry -> t

val energy : t -> Component.t -> float
(** Energy of one access (one port operation) of the component. *)

val idle : t -> Component.t -> float
(** cc3 residual charged for a cycle with no access. *)

val clock_per_cycle : t -> float
(** Clock-tree energy charged every cycle unconditionally. *)

val iq_partial_update_fraction : float
(** Fraction of a full issue-queue payload write charged when reuse-mode
    dispatch updates only the register fields and the ROB pointer
    (Section 2.4 of the paper). *)

open Riq_util

(** Regeneration of every table and figure of the paper as ASCII tables
    whose rows/series mirror the published plots. See EXPERIMENTS.md for
    the paper-vs-measured record.

    The ablation printers submit all their simulations as one batch to an
    experiment engine: pass [engine] to run them on any backend — the
    fork pool, or a [riq-sim serve] daemon via [Riq_svc.Client.backend] —
    and/or serve repeats from the result cache (many ablation cells
    coincide with sweep cells and dedupe for free). With no [engine] they
    run sequentially in-process, as before. *)

val table1 : unit -> string
(** The baseline configuration, rendered like the paper's Table 1. *)

val table2 : unit -> Table.t
(** The benchmark list with provenance (Table 2). *)

val fig5 : Sweep.t -> Table.t
(** Percentage of execution cycles with the pipeline front-end gated, per
    benchmark per issue-queue size, with the arithmetic mean row. *)

val fig6 : Sweep.t -> Table.t
(** Benchmark-average power reduction in the instruction cache, branch
    predictor and issue queue, plus overhead power as a share of total,
    per issue-queue size. *)

val fig7 : Sweep.t -> Table.t
(** Overall per-cycle power reduction per benchmark per size. *)

val fig8 : Sweep.t -> Table.t
(** IPC degradation (percent, positive = slower than the conventional
    queue) per benchmark per size. *)

val coverage : Sweep.t -> Table.t
(** Static bufferability analysis ({!Riq_analysis.Bufferability}) against
    the dynamic core: predicted vs. simulator-measured reuse coverage per
    benchmark per issue-queue size. *)

val fig9 : ?engine:Riq_exp.Engine.t -> ?check:bool -> unit -> Table.t
(** Section 4: overall power reduction with original vs. loop-distributed
    code at the 64-entry baseline configuration, plus the gated-cycle
    percentages quoted in the text. *)

val nblt_ablation : ?engine:Riq_exp.Engine.t -> ?check:bool -> unit -> Table.t
(** Section 3 text: buffering-revoke rate with and without the 8-entry
    NBLT. *)

val strategy_ablation : ?engine:Riq_exp.Engine.t -> ?check:bool -> unit -> Table.t
(** Section 2.2.1: single-iteration buffering (strategy 1) vs.
    multiple-iteration buffering (strategy 2): gated cycles and IPC. *)

val related_work :
  ?engine:Riq_exp.Engine.t -> ?check:bool -> ?iq_size:int -> unit -> Table.t
(** The paper's introduction contrasts the reusable issue queue with
    fetch-side loop caches and filter caches, which save instruction-cache
    energy but keep the branch predictor and decoder running. This
    experiment quantifies the gap at the baseline configuration: icache-
    group and total power reduction plus IPC impact for a 64-entry loop
    cache, a 512-byte filter cache, and the reuse issue queue. *)

val predictor_ablation : ?engine:Riq_exp.Engine.t -> ?check:bool -> unit -> Table.t
(** Sensitivity of the mechanism to the direction predictor: bimodal
    (Table 1) vs. gshare. Detection arms on a predicted-taken backward
    branch, so a predictor that recognises loop branches sooner gates
    sooner. *)

val unroll_ablation :
  ?engine:Riq_exp.Engine.t -> ?check:bool -> ?factor:int -> unit -> Table.t
(** The compiler lever opposite to Section 4's loop distribution: unroll
    every loop by [factor] (default 4) and measure, at the 32-entry queue,
    how grown bodies lose capturability — and with it the gating and power
    benefit — against the control overhead they save. *)

val revoke_causes : ?check:bool -> ?iq_size:int -> unit -> Table.t
(** Static revoke-cause prediction against the simulator's per-loop cause
    counters ([iq_size] defaults to 32): one row per dynamically detected
    loop, the cause the {!Riq_analysis.Bufferability} verdict implies (if
    any), the measured inner-loop / left-loop / overflow / mispredict
    revoke counts, and whether the dominant measured cause matches the
    prediction. Runs {!Riq_exp.Runner.simulate} in-process — the cause
    counters are per-loop, not part of the engine's summary statistics.
    [check] (default true) holds every run to {!Riq_exp.Runner.check}
    against the interpreter and raises [Failure] on the first error. *)

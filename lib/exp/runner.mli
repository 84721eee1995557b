open Riq_core
open Riq_interp
open Riq_analysis

(** In-process job execution — the one code path from a {!Job.t} to a
    finished processor ({!simulate}), from a finished run to its verdict
    ({!check}) and from both to the measurements ({!execute}). Engine
    backends, pool and daemon workers, the fuzz oracle and the CLIs'
    single runs all go through here, so every checked run is held to the
    same contract. *)

val simulate :
  ?tracer:Riq_obs.Tracer.t ->
  ?sample_stride:int ->
  Job.t ->
  (Processor.t * float, Outcome.error) result
(** Run the job's program on its configuration until it halts: the
    finished processor and the CPU seconds spent inside [Processor.run].
    [Error (Cycle_limit_exceeded _)] when the job's cycle budget runs
    out. [tracer] and [sample_stride] are handed to [Processor.create]. *)

type run = {
  arch : Machine.arch_state;
  stats : Processor.stats;
  decisions : Processor.loop_decision list;
}
(** What {!check} reads from a finished simulation. *)

val observe : Processor.t -> run
(** Snapshot a finished processor for {!check} (copies the architectural
    state). *)

type verdicts = {
  report : Bufferability.report;
      (** the static analysis of the job's program on its configuration *)
  no_alias_claims : int;  (** no-alias claims confirmed on the interpreter *)
}

val check : Job.t -> run -> (verdicts option, Outcome.error) result
(** The contract of a checked run, first failure wins:
    - with [job.check], the final architectural state equals the
      reference interpreter's ([Arch_state_mismatch],
      [Reference_did_not_halt]);
    - the reuse accounting adds up ([Accounting_mismatch]): a reuse-off
      run reports no reused commit and no promotion, reused commits imply
      a promotion, and the per-loop promotions sum to [stats.promotions];
    - with [job.verdicts] on a reuse configuration, the per-loop
      promotions and revoke causes agree with the static
      {!Bufferability} verdicts and every no-alias claim survives the
      addresses the interpreter produces ([Verdict_mismatch]). The
      analysis and the confirmed claim count come back as [Some _]. *)

val execute : Job.t -> Outcome.t
(** {!simulate}, then — for a job with [check] or [verdicts] set —
    {!check}, then the measurement record. A job with neither flag copies
    no architectural state and runs no interpreter. Never raises for the
    simulation-level failure modes; unexpected exceptions propagate. *)

val execute_safe : Job.t -> Outcome.t
(** Like {!execute} but converts unexpected exceptions into
    [Error (Worker_crashed _)]. *)

open Riq_asm
open Riq_ooo
open Riq_core
open Riq_exp

(** Three-way differential oracle.

    One generated program is run on three machines — the functional
    reference ({!Riq_interp.Machine}), the out-of-order core with reuse
    disabled, and the same core with the reusable issue queue on. The two
    out-of-order runs are the two {!Riq_exp.Job.t}s a fuzz campaign
    submits ({!legs}), and every check — final architectural state
    against the reference, the processor's reuse accounting, and the
    dynamic reuse decisions against the static
    {!Riq_analysis.Bufferability} verdicts — is {!Riq_exp.Runner.check}'s,
    so a replayed or shrunk program is held to exactly the contract the
    campaign's engine jobs are. *)

val legs : Config.t -> Program.t -> Job.t * Job.t
(** [legs cfg program] is [(off, on)]. [on] runs [cfg] (a reuse
    configuration) and is checked against the interpreter and the static
    verdicts; [off] is [cfg] with the mechanism switched off, checked
    against the interpreter, so the two runs differ only in the feature
    under test. Both carry a 10-million-cycle budget: generated programs
    execute tens of thousands of instructions, so anything near it is a
    livelock. *)

type runner = Job.t -> (Runner.run, Outcome.error) result
(** How the oracle executes one leg. Injectable so the mutation tests can
    wrap {!default_runner} with a deliberate fault and prove the checks
    catch it. *)

val default_runner : runner
(** {!Riq_exp.Runner.simulate} in this process; an exception becomes
    [Worker_crashed]. *)

type failure = {
  leg : string;  (** ["reuse-off"] or ["reuse-on"] *)
  error : Outcome.error;
}

val failure_to_string : failure -> string

val first_failure : Outcome.t * Outcome.t -> failure option
(** The failure of the first failing leg among the [(off, on)] outcomes,
    reuse-off first — the failure {!check} reports for the same runs. *)

val scrub_fast : Processor.stats -> Processor.stats
(** Inert: zeroes [skipped_cycles] and [ffwd_iterations], which are
    always 0 now that the fast paths they counted are gone (DESIGN.md
    §9.5), so this returns a record equal to its argument. Nothing in the
    simulator calls it. The benchmark under [perfledger/] still does, so
    it stays until that benchmark no longer needs it. *)

(** Aggregate reuse activity of the reuse-on run, summed over all detected
    loops. The corpus tests assert every transition of the paper's Figure 2
    state machine is exercised by accumulating these across programs. *)
type summary = {
  committed : int;
  detections : int;
  nblt_filtered : int;
  attempts : int;
  revokes : int;
  nblt_registered : int;
  promotions : int;
  exits : int;
  reuse_committed : int;
  static_loops : int;  (** loops the static analysis saw *)
  hard_rejected : int;  (** of those, hard-rejected ones *)
}

val check : ?runner:runner -> cfg:Config.t -> Program.t -> (summary, failure) result
(** Run and check the reuse-off leg, then the reuse-on leg, of
    [legs cfg program]. *)

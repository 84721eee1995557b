open Riq_asm
open Riq_ooo
open Riq_core
open Riq_interp

(** Three-way differential oracle.

    One generated program is run on three machines — the functional
    reference ({!Riq_interp.Machine}), the out-of-order core with reuse
    disabled, and the same core with the reusable issue queue on — and the
    final architectural states must agree bit-for-bit. On top of the state
    comparison the oracle cross-checks the dynamic reuse decisions against
    the static {!Riq_analysis.Bufferability} verdicts
    ({!Riq_analysis.Bufferability.consistency}) and the processor's own
    reuse accounting. *)

type run = {
  arch : Machine.arch_state;
  stats : Processor.stats;
  decisions : Processor.loop_decision list;
}

type runner = Config.t -> Program.t -> (run, string) result
(** How the oracle executes one out-of-order simulation. Injectable so the
    mutation tests can wrap {!default_runner} with a deliberate fault and
    prove the oracle catches it. *)

val default_runner : ?cycle_limit:int -> unit -> runner
(** In-process {!Riq_core.Processor} run ([cycle_limit] defaults to 10
    million — generated programs execute tens of thousands of
    instructions, so anything near the limit is a livelock). *)

type failure =
  | Reference_stuck of string
      (** the golden model did not halt — a generator invariant broke *)
  | Ooo_stuck of { config : string; detail : string }
      (** an out-of-order run hit its cycle limit or crashed *)
  | Arch_mismatch of { config : string; diff : string }
      (** final architectural state differs from the reference *)
  | Verdict_mismatch of string
      (** dynamic promotions or revoke causes contradict the static
          bufferability verdicts *)
  | Alias_mismatch of string
      (** a static [No_alias] claim was contradicted by effective
          addresses observed on the reference interpreter — a soundness
          bug in the dataflow analyses *)
  | Accounting of string
      (** the processor's reuse counters are self-inconsistent (e.g.
          reused commits without a promotion, or reuse activity in the
          reuse-off run) *)

val failure_to_string : failure -> string

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
  no_alias_claims : int;  (** no-alias claims validated against the interpreter *)
  alias_risks : int;  (** store/load pairs flagged [Aliasing_store] *)
}

val check :
  ?runner:runner ->
  ?ref_limit:int ->
  cfg:Config.t ->
  Program.t ->
  (summary, failure) result
(** [check ~cfg program] with [cfg.reuse_enabled]; the reuse-off leg is
    [cfg] with the mechanism switched off, so the two out-of-order runs
    differ only in the feature under test. [ref_limit] bounds the
    reference interpreter (default 5 million instructions). *)

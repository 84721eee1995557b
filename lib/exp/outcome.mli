open Riq_core

(** The result of one simulation job: either the full measurement record
    every experiment consumes, or a structured per-job failure. Plain data
    on both sides so outcomes marshal across worker pipes and onto disk. *)

type sim_result = {
  stats : Processor.stats;
  sim_seconds : float;
      (** CPU seconds spent inside [Processor.run] for this job — host
          throughput telemetry (insns/s derives from it), not part of the
          deterministic measurement contract. A cache hit reports the
          seconds of the run that populated the cache. *)
  icache_power : float; (** per-cycle, Figure 6 grouping *)
  bpred_power : float;
  iq_power : float;
  overhead_power : float;
  total_power : float;
  arch_ok : bool option; (** differential check result when requested *)
}

type error =
  | Cycle_limit_exceeded of int (** the simulated program did not halt *)
  | Arch_state_mismatch of string
      (** differential validation failed; carries the rendered
          register/memory diff ({!Riq_interp.Machine.diff_string}) *)
  | Verdict_mismatch of string
      (** requested with [Job.verdicts]: a dynamically promoted loop the
          static {!Riq_analysis.Bufferability} pass hard-rejects, a
          promoted tail the analysis never saw, or a revoke cause the
          analysis rules out *)
  | Accounting_mismatch of string
      (** the run's reuse counters contradict each other: reuse activity
          with reuse off, reused commits without a promotion, or per-loop
          promotions that do not sum to the aggregate *)
  | Reference_did_not_halt
  | Worker_crashed of string (** worker process died; host-dependent *)
  | Job_timeout of float (** per-job wall-clock budget exhausted *)

type t = (sim_result, error) result

val cacheable : t -> bool
(** A success, or an error that is a property of the job rather than of
    the host it ran on (a crash or a timeout is retried next time). *)

val zero_timing : t -> t
(** Erase the host-timing telemetry ([sim_seconds] := 0). The
    bit-identity contract between independently executed runs of the same
    job covers everything {e except} [sim_seconds]; structural equality
    checks must normalize both sides through this first. *)

val error_to_string : error -> string

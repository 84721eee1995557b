open Riq_core

type sim_result = {
  stats : Processor.stats;
  sim_seconds : float;
  icache_power : float;
  bpred_power : float;
  iq_power : float;
  overhead_power : float;
  total_power : float;
  arch_ok : bool option;
}

type error =
  | Cycle_limit_exceeded of int
  | Arch_state_mismatch of string
  | Verdict_mismatch of string
  | Accounting_mismatch of string
  | Reference_did_not_halt
  | Worker_crashed of string
  | Job_timeout of float

type t = (sim_result, error) result

(* Deterministic errors are properties of the job itself and may be cached;
   crashes and timeouts depend on the host and must be retried next run. *)
let error_is_deterministic = function
  | Cycle_limit_exceeded _ | Arch_state_mismatch _ | Verdict_mismatch _
  | Accounting_mismatch _ | Reference_did_not_halt ->
      true
  | Worker_crashed _ | Job_timeout _ -> false

let error_to_string = function
  | Cycle_limit_exceeded n -> Printf.sprintf "cycle limit exceeded (%d cycles)" n
  | Arch_state_mismatch diff ->
      "architectural state mismatch vs reference simulator:\n" ^ diff
  | Verdict_mismatch msg ->
      "dynamic reuse decisions contradict the static bufferability verdicts: " ^ msg
  | Accounting_mismatch msg -> "reuse accounting inconsistency: " ^ msg
  | Reference_did_not_halt -> "reference simulator did not halt"
  | Worker_crashed msg -> "worker crashed: " ^ msg
  | Job_timeout s -> Printf.sprintf "job timed out after %.1f s" s

let cacheable = function Ok _ -> true | Error e -> error_is_deterministic e

(* The determinism contract covers everything but [sim_seconds], which
   measures the host, not the job. Comparisons of independently executed
   outcomes must erase it first. *)
let zero_timing : t -> t = function
  | Ok r -> Ok { r with sim_seconds = 0. }
  | Error _ as e -> e

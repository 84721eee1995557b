(* The in-process core measurement loop: time Processor.run around one
   simulation, then build the same measurement record Runner.execute
   would, so core ops and engine ops share one golden check. *)

open Riq_power
open Riq_core
open Riq_interp
open Riq_exp

type sample = {
  stop : Processor.stop;
  result : Outcome.sim_result; (* sim_seconds: CPU seconds in Processor.run *)
  minor_words : float; (* minor-heap words allocated by Processor.run *)
}

(* Returns the processor too, for the arch-state check; callers drop it
   right after, so a pass never holds more than one simulated machine. *)
let simulate ?(tracer = Riq_obs.Tracer.null ()) cfg program =
  let p = Measure.span tracer "Processor.create" (fun () -> Processor.create cfg program) in
  let w0 = Gc.minor_words () in
  let c0 = Measure.cpu () in
  let stop = Measure.span tracer "Processor.run" (fun () -> Processor.run p) in
  let run_cpu_s = Measure.cpu () -. c0 in
  let minor_words = Gc.minor_words () -. w0 in
  let acct = Processor.account p in
  let result =
    {
      Outcome.stats = Processor.stats p;
      sim_seconds = run_cpu_s;
      icache_power = Account.group_power acct Component.G_icache;
      bpred_power = Account.group_power acct Component.G_bpred;
      iq_power = Account.group_power acct Component.G_iq;
      overhead_power = Account.group_power acct Component.G_overhead;
      total_power = Account.avg_power acct;
      arch_ok = None;
    }
  in
  ({ stop; result; minor_words }, p)

(* The interpreter reference run an op's final state is checked against. *)
let reference program =
  let m = Machine.create program in
  match Machine.run m with
  | Machine.Halted -> Machine.arch_state m
  | Machine.Insn_limit | Machine.Bad_pc _ -> failwith "reference run did not halt"

(* An in-process op's verdict: the simulation halted, its architectural
   state equals the interpreter's, and its digest equals golden. *)
let check ~golden ~key ~reference (s, p) =
  match s.stop with
  | Processor.Cycle_limit -> Error "hit the cycle limit"
  | Processor.Halted ->
      let got = Processor.arch_state p in
      if not (Machine.equal_arch reference got) then
        Error ("arch-state mismatch: " ^ Machine.diff_string reference got)
      else Golden.check golden key s.result

(* The op verdicts of one run; failed_frac is failed / attempted. *)
type tally = { mutable attempted : int; mutable failures : (string * string) list }

let tally () = { attempted = 0; failures = [] }

let record t label verdict =
  t.attempted <- t.attempted + 1;
  match verdict with Ok () -> () | Error e -> t.failures <- (label, e) :: t.failures

let failed_frac t =
  Riq_util.Stats.ratio (float_of_int (List.length t.failures)) (float_of_int t.attempted)

(* An engine op's verdict: the job succeeded, its differential check
   passed when it asked for one, and a paper cell's digest equals
   golden. *)
let check_outcome ~golden ~checked ?key (o : Outcome.t) =
  match o with
  | Error e -> Error (Outcome.error_to_string e)
  | Ok r when checked && r.Outcome.arch_ok <> Some true -> Error "arch_ok is not true"
  | Ok r -> ( match key with None -> Ok () | Some k -> Golden.check golden k r)

open Riq_power
open Riq_core
open Riq_interp
open Riq_analysis

let ( let* ) = Result.bind

let simulate ?tracer ?sample_stride (job : Job.t) =
  let p = Processor.create ?tracer ?sample_stride job.Job.cfg job.Job.program in
  (* CPU time, not wall time: the worker may share the host with siblings,
     and throughput telemetry should measure the simulator, not the load. *)
  let t0 = (Unix.times ()).Unix.tms_utime in
  let stop = Processor.run ~cycle_limit:job.Job.cycle_limit p in
  let sim_seconds = (Unix.times ()).Unix.tms_utime -. t0 in
  match stop with
  | Processor.Cycle_limit -> Error (Outcome.Cycle_limit_exceeded job.Job.cycle_limit)
  | Processor.Halted -> Ok (p, sim_seconds)

type run = {
  arch : Machine.arch_state;
  stats : Processor.stats;
  decisions : Processor.loop_decision list;
}

let observe p =
  {
    arch = Processor.arch_state p;
    stats = Processor.stats p;
    decisions = Processor.loop_decisions p;
  }

type verdicts = { report : Bufferability.report; no_alias_claims : int }

let against_interpreter program arch =
  let m = Machine.create program in
  match Machine.run m with
  | Machine.Halted ->
      let golden = Machine.arch_state m in
      if Machine.equal_arch golden arch then Ok ()
      else Error (Outcome.Arch_state_mismatch (Machine.diff_string golden arch))
  | Machine.Insn_limit | Machine.Bad_pc _ -> Error Outcome.Reference_did_not_halt

let accounting ~reuse r =
  let st = r.stats in
  let fail fmt = Printf.ksprintf (fun s -> Error (Outcome.Accounting_mismatch s)) fmt in
  let per_loop =
    List.fold_left (fun acc d -> acc + d.Processor.ld_promotions) 0 r.decisions
  in
  if (not reuse) && (st.Processor.reuse_committed > 0 || st.Processor.promotions > 0)
  then
    fail "reuse-off run reports reuse activity (%d reused commits, %d promotions)"
      st.Processor.reuse_committed st.Processor.promotions
  else if st.Processor.reuse_committed > 0 && st.Processor.promotions = 0 then
    fail "%d reused commits but no promotion" st.Processor.reuse_committed
  else if per_loop <> st.Processor.promotions then
    fail "per-loop promotions (%d) != stats.promotions (%d)" per_loop
      st.Processor.promotions
  else Ok ()

let cross_check (job : Job.t) r =
  let report = Bufferability.analyze_config job.Job.cfg job.Job.program in
  Result.map_error
    (fun msg -> Outcome.Verdict_mismatch msg)
    (let* () = Bufferability.consistency report r.decisions in
     (* No-alias claims must survive the addresses the program actually
        produces. *)
     let* no_alias_claims =
       Result.map_error
         (fun s -> "no-alias claim contradicted: " ^ s)
         (Bufferability.validate_no_alias job.Job.program report)
     in
     Ok { report; no_alias_claims })

let check (job : Job.t) r =
  let reuse = job.Job.cfg.Riq_ooo.Config.reuse_enabled in
  let* () = if job.Job.check then against_interpreter job.Job.program r.arch else Ok () in
  let* () = accounting ~reuse r in
  if job.Job.verdicts && reuse then Result.map Option.some (cross_check job r)
  else Ok None

let execute (job : Job.t) : Outcome.t =
  let* p, sim_seconds = simulate job in
  let* _ =
    if job.Job.check || job.Job.verdicts then check job (observe p) else Ok None
  in
  let acct = Processor.account p in
  Ok
    {
      Outcome.stats = Processor.stats p;
      sim_seconds;
      icache_power = Account.group_power acct Component.G_icache;
      bpred_power = Account.group_power acct Component.G_bpred;
      iq_power = Account.group_power acct Component.G_iq;
      overhead_power = Account.group_power acct Component.G_overhead;
      total_power = Account.avg_power acct;
      arch_ok = (if job.Job.check then Some true else None);
    }

let execute_safe job =
  try execute job
  with exn -> Error (Outcome.Worker_crashed (Printexc.to_string exn))

open Riq_asm
open Riq_ooo
open Riq_core
open Riq_interp
open Riq_analysis

type run = {
  arch : Machine.arch_state;
  stats : Processor.stats;
  decisions : Processor.loop_decision list;
}

type runner = Config.t -> Program.t -> (run, string) result

let default_runner ?(cycle_limit = 10_000_000) () : runner =
 fun cfg program ->
  match
    let p = Processor.create cfg program in
    match Processor.run ~cycle_limit p with
    | Processor.Cycle_limit ->
        Error (Printf.sprintf "cycle limit exceeded (%d cycles)" cycle_limit)
    | Processor.Halted ->
        Ok
          {
            arch = Processor.arch_state p;
            stats = Processor.stats p;
            decisions = Processor.loop_decisions p;
          }
  with
  | result -> result
  | exception exn -> Error ("exception: " ^ Printexc.to_string exn)

type failure =
  | Reference_stuck of string
  | Ooo_stuck of { config : string; detail : string }
  | Arch_mismatch of { config : string; diff : string }
  | Verdict_mismatch of string
  | Alias_mismatch of string
  | Accounting of string

let failure_to_string = function
  | Reference_stuck s -> "reference interpreter stuck: " ^ s
  | Ooo_stuck { config; detail } ->
      Printf.sprintf "out-of-order run (%s) stuck: %s" config detail
  | Arch_mismatch { config; diff } ->
      Printf.sprintf "architectural state mismatch (%s vs reference):\n%s" config diff
  | Verdict_mismatch s -> "static/dynamic verdict mismatch: " ^ s
  | Alias_mismatch s -> "static no-alias claim contradicted dynamically: " ^ s
  | Accounting s -> "reuse accounting inconsistency: " ^ s

let scrub_fast (s : Processor.stats) =
  { s with Processor.skipped_cycles = 0; ffwd_iterations = 0 }

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
  static_loops : int;
  hard_rejected : int;
  no_alias_claims : int;
  alias_risks : int;
}

let ( let* ) = Result.bind

let run_leg (runner : runner) ~name ~golden cfg program =
  let* r =
    Result.map_error (fun detail -> Ooo_stuck { config = name; detail })
      (runner cfg program)
  in
  if Machine.equal_arch golden r.arch then Ok r
  else
    Error
      (Arch_mismatch { config = name; diff = Machine.diff_string golden r.arch })

let check ?(runner = default_runner ()) ?(ref_limit = 5_000_000) ~cfg program =
  let m = Machine.create program in
  let* golden =
    match Machine.run ~limit:ref_limit m with
    | Machine.Halted -> Ok (Machine.arch_state m)
    | Machine.Insn_limit ->
        Error (Reference_stuck (Printf.sprintf "instruction limit (%d)" ref_limit))
    | Machine.Bad_pc pc -> Error (Reference_stuck (Printf.sprintf "bad pc 0x%x" pc))
  in
  let* off =
    run_leg runner ~name:"reuse-off" ~golden
      { cfg with Config.reuse_enabled = false }
      program
  in
  let* () =
    if off.stats.Processor.reuse_committed = 0 && off.stats.Processor.promotions = 0
    then Ok ()
    else
      Error
        (Accounting
           (Printf.sprintf
              "reuse-off run reports reuse activity (%d reused commits, %d promotions)"
              off.stats.Processor.reuse_committed off.stats.Processor.promotions))
  in
  let* on = run_leg runner ~name:"reuse-on" ~golden cfg program in
  let st = on.stats in
  let* () =
    if st.Processor.reuse_committed > 0 && st.Processor.promotions = 0 then
      Error
        (Accounting
           (Printf.sprintf "%d reused commits but no promotion"
              st.Processor.reuse_committed))
    else Ok ()
  in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 on.decisions in
  let per_loop_promotions = sum (fun d -> d.Processor.ld_promotions) in
  let* () =
    if per_loop_promotions = st.Processor.promotions then Ok ()
    else
      Error
        (Accounting
           (Printf.sprintf "per-loop promotions (%d) != stats.promotions (%d)"
              per_loop_promotions st.Processor.promotions))
  in
  let report = Bufferability.analyze_config cfg program in
  let promotions =
    List.map (fun d -> (d.Processor.ld_tail, d.Processor.ld_promotions)) on.decisions
  in
  let causes =
    List.map
      (fun d ->
        ( d.Processor.ld_tail,
          {
            Bufferability.rc_inner = d.Processor.ld_rv_inner;
            rc_left = d.Processor.ld_rv_left;
            rc_overflow = d.Processor.ld_rv_overflow;
            rc_mispredict = d.Processor.ld_rv_mispredict;
          } ))
      on.decisions
  in
  let* () =
    Result.map_error (fun s -> Verdict_mismatch s)
      (Bufferability.consistency ~causes report ~promotions)
  in
  let* no_alias_claims =
    Result.map_error (fun s -> Alias_mismatch s)
      (Bufferability.validate_no_alias ~limit:ref_limit program report)
  in
  let hard_rejected =
    List.length
      (List.filter
         (fun (l : Bufferability.loop_report) ->
           match l.Bufferability.verdict with
           | Error r -> Bufferability.hard_reject r
           | Ok () -> false)
         report.Bufferability.loops)
  in
  Ok
    {
      committed = st.Processor.committed;
      detections = sum (fun d -> d.Processor.ld_detections);
      nblt_filtered = sum (fun d -> d.Processor.ld_nblt_filtered);
      attempts = sum (fun d -> d.Processor.ld_attempts);
      revokes = sum (fun d -> d.Processor.ld_revokes);
      nblt_registered = sum (fun d -> d.Processor.ld_nblt_registered);
      promotions = st.Processor.promotions;
      exits = st.Processor.reuse_exits;
      reuse_committed = st.Processor.reuse_committed;
      static_loops = List.length report.Bufferability.loops;
      hard_rejected;
      no_alias_claims;
      alias_risks =
        List.fold_left
          (fun acc (l : Bufferability.loop_report) ->
            acc
            + List.length
                (List.filter
                   (function
                     | Bufferability.Aliasing_store _ -> true
                     | Bufferability.Data_dependent_trip -> false)
                   l.Bufferability.risks))
          0 report.Bufferability.loops;
    }

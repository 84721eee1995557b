open Riq_ooo
open Riq_core
open Riq_analysis
open Riq_exp

let cycle_limit = 10_000_000

let legs cfg program =
  ( Job.make ~check:true ~cycle_limit { cfg with Config.reuse_enabled = false } program,
    Job.make ~check:true ~verdicts:true ~cycle_limit cfg program )

type runner = Job.t -> (Runner.run, Outcome.error) result

let default_runner job =
  match Runner.simulate job with
  | Ok (p, _) -> Ok (Runner.observe p)
  | Error e -> Error e
  | exception exn -> Error (Outcome.Worker_crashed (Printexc.to_string exn))

type failure = { leg : string; error : Outcome.error }

let failure_to_string f = f.leg ^ " leg: " ^ Outcome.error_to_string f.error

let first_failure = function
  | Error error, _ -> Some { leg = "reuse-off"; error }
  | Ok _, Error error -> Some { leg = "reuse-on"; error }
  | Ok _, Ok _ -> None

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
}

let ( let* ) = Result.bind

let summarize (r : Runner.run) (report : Bufferability.report option) =
  let st = r.Runner.stats in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 r.Runner.decisions in
  let loops = match report with Some report -> report.Bufferability.loops | None -> [] in
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
    static_loops = List.length loops;
    hard_rejected =
      List.length
        (List.filter
           (fun (l : Bufferability.loop_report) ->
             match l.Bufferability.verdict with
             | Error r -> Bufferability.hard_reject r
             | Ok () -> false)
           loops);
  }

let check ?(runner = default_runner) ~cfg program =
  let off, on = legs cfg program in
  let leg name job =
    Result.map_error
      (fun error -> { leg = name; error })
      (let* r = runner job in
       let* report = Runner.check job r in
       Ok (r, report))
  in
  let* _ = leg "reuse-off" off in
  let* r, report = leg "reuse-on" on in
  Ok (summarize r report)

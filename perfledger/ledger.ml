(* The performance ledger. Run from the repository root:

     ledger.exe run --workload W --seed S --seconds N --trace 0|1
     ledger.exe record --out FILE [--seeds 1-10] [--workloads W,..] [--seconds N] [--trace]
     ledger.exe compare A.json B.json [--spec BENCHMARK.json]
     ledger.exe bless [--out perfledger/golden.json]

   See perfledger/README.md for the workloads, the metrics and how to
   read a traced run. *)

open Riq_util
open Riq_ledger

let golden_default = "perfledger/golden.json"

let parse name argv specs =
  let anon = ref [] in
  (try Arg.parse_argv ~current:(ref 0) argv specs (fun a -> anon := a :: !anon) ("ledger " ^ name)
   with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  List.rev !anon

let cmd_run argv =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let golden = ref golden_default in
  ignore
    (parse "run" argv
       [
         ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " Spec.workloads);
         ("--seed", Arg.Set_int seed, "S input seed");
         ("--seconds", Arg.Set_int seconds, "N measure passes for N seconds");
         ("--trace", Arg.Set_int trace, "0|1 1: per-layer metrics and a Perfetto trace");
         ("--golden", Arg.Set_string golden, "FILE golden digests");
       ]);
  if not (List.mem !workload Spec.workloads) then begin
    Printf.eprintf "ledger: --workload must be one of %s\n" (String.concat ", " Spec.workloads);
    exit 2
  end;
  let r =
    Run.run ~golden:(Golden.load !golden) ~workload:!workload ~seed:!seed
      ~seconds:(float_of_int !seconds) ~trace:(!trace <> 0)
      ~work:(Printf.sprintf "perfledger/.work/%d" (Unix.getpid ()))
      ~trace_out:(Printf.sprintf "perfledger/results/trace.%s.json" !workload)
  in
  List.iter (fun (n, v, u) -> Printf.printf "%-32s %16.6g %s\n" n v u) r.metrics;
  if Array.length r.pass_times >= 2 then begin
    let q1, q2, q3 = Measure.quartiles r.pass_times in
    let n = Array.length r.pass_times in
    Printf.printf "pass_s quartiles %.4f %.4f %.4f over %d passes\n" q1 q2 q3 n;
    Printf.printf "pass_s samples%s\n"
      (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.4f") r.pass_times)))
  end;
  Printf.printf "ops %d attempted, %d failed (failed_frac %g)\n" r.attempted r.failed
    (Stats.ratio (float_of_int r.failed) (float_of_int r.attempted));
  List.iteri
    (fun i (label, why) -> if i < 10 then Printf.eprintf "ledger: FAILED %s: %s\n" label why)
    r.failures;
  print_endline (Json.to_string (Ledger_file.result_json r));
  exit (if r.correct then 0 else 1)

let seeds_of s =
  match String.split_on_char '-' s with
  | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (fun i -> int_of_string a + i)
  | _ -> List.map int_of_string (String.split_on_char ',' s)

let last_line ic =
  let rec go last = match In_channel.input_line ic with Some l -> go (Some l) | None -> last in
  go None

let cmd_record argv =
  let out = ref "" and seeds = ref "1-10" and workloads = ref "" and seconds = ref 0 in
  let trace = ref false in
  ignore
    (parse "record" argv
       [
         ("--out", Arg.Set_string out, "FILE ledger file to write");
         ("--seeds", Arg.Set_string seeds, "A-B|S,S,.. seeds (default 1-10)");
         ("--workloads", Arg.Set_string workloads, "W,.. workloads (default all)");
         ("--seconds", Arg.Set_int seconds, "N seconds per run (default BENCHMARK.json's)");
         ("--trace", Arg.Set trace, " also one traced run per workload, on the first seed");
       ]);
  if !out = "" then (prerr_endline "ledger record: --out is required"; exit 2);
  let seconds =
    if !seconds > 0 then !seconds
    else match Spec.read_benchmark "BENCHMARK.json" with Ok b -> b.run_seconds | Error _ -> 10
  in
  let workloads = if !workloads = "" then Spec.workloads else String.split_on_char ',' !workloads in
  let seeds = seeds_of !seeds in
  (* Each run in its own process, as BENCHMARK.json's command runs it. *)
  let run w seed trace =
    let args =
      [| Sys.executable_name; "run"; "--workload"; w; "--seed"; string_of_int seed;
         "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0") |]
    in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    let line = last_line ic in
    ignore (Unix.close_process_in ic);
    match Option.map Json.of_string line with
    | Some (Ok doc) ->
        let how = if trace then " traced" else "" in
        Printf.eprintf "ledger record: %s seed %d%s done\n%!" w seed how;
        { Ledger_file.workload = w; seed; trace; doc }
    | _ ->
        Printf.eprintf "ledger record: %s seed %d printed no result\n" w seed;
        exit 1
  in
  let runs =
    List.concat_map
      (fun w ->
        let untraced = List.map (fun seed -> run w seed false) seeds in
        untraced @ if !trace then [ run w (List.hd seeds) true ] else [])
      workloads
  in
  Json.to_file !out (Ledger_file.to_json ~seconds runs)

let cmd_compare argv =
  let spec_path = ref "BENCHMARK.json" in
  match parse "compare" argv [ ("--spec", Arg.Set_string spec_path, "FILE BENCHMARK.json") ] with
  | [ a; b ] ->
      let spec =
        match Spec.read_benchmark !spec_path with
        | Ok s -> s
        | Error e ->
            Printf.eprintf "ledger compare: %s: %s\n" !spec_path e;
            exit 2
      in
      let load p = Ledger_file.runs_of (Json.of_string_exn (Spec.read_file p)) in
      let rows = Ledger_file.compare_runs spec (load a) (load b) in
      Printf.printf "%-14s %-12s %30s %30s %8s  %s\n" "workload" "metric" "A q1/median/q3"
        "B q1/median/q3" "diff" "verdict";
      List.iter
        (fun (r : Ledger_file.row) ->
          let q (x, y, z) = Printf.sprintf "%.4g/%.4g/%.4g" x y z in
          Printf.printf "%-14s %-12s %30s %30s %+7.2f%%  %s\n" r.r_workload r.r_metric (q r.a)
            (q r.b) (100. *. r.rel)
            (Ledger_file.verdict_to_string r.verdict))
        rows;
      if List.exists (fun (r : Ledger_file.row) -> r.verdict = Ledger_file.Worse) rows then exit 1
  | _ ->
      prerr_endline "usage: ledger compare A.json B.json [--spec BENCHMARK.json]";
      exit 2

let cmd_bless argv =
  let out = ref golden_default in
  ignore (parse "bless" argv [ ("--out", Arg.Set_string out, "FILE where to write the digests") ]);
  let cells =
    List.map
      (fun (c : Inputs.cell) ->
        let program = Riq_workloads.Workloads.program (Riq_workloads.Workloads.find c.kernel) in
        let s, p = Core_loop.simulate c.cfg program in
        let reference = Core_loop.reference program in
        if s.Core_loop.stop <> Riq_core.Processor.Halted
           || not (Riq_interp.Machine.equal_arch reference (Riq_core.Processor.arch_state p))
        then failwith ("bless: " ^ c.key ^ " does not match the interpreter");
        (c.key, Golden.digest s.result))
      (Inputs.paper_cells ())
  in
  (* Run every fuzz-pool program as serve-mixed would and leave out the
     ones that fail. *)
  let failure (label, job) =
    match Riq_exp.Runner.execute_safe job with
    | Ok r when r.Riq_exp.Outcome.arch_ok = Some true -> None
    | Ok _ -> Some (label ^ ": arch_ok is not true")
    | Error e -> Some (label ^ ": " ^ Riq_exp.Outcome.error_to_string e)
  in
  let excluded =
    List.filter_map
      (fun i ->
        let s = Inputs.fuzz_pool_seed i in
        Option.map
          (fun why -> (i, s, why))
          (List.find_map failure (Inputs.fuzz_jobs [ (s, Inputs.fuzz_program s) ])))
      (List.init Inputs.fuzz_pool_size Fun.id)
  in
  Golden.save !out ~cells ~excluded;
  Printf.printf "blessed %d cells into %s; %d of %d fuzz-pool programs left out\n"
    (List.length cells) !out (List.length excluded) Inputs.fuzz_pool_size;
  List.iter (fun (i, s, why) -> Printf.printf "  pool %d (seed %d): %s\n" i s why) excluded

let () =
  let argv = Sys.argv in
  let sub = Array.sub argv 1 (max 0 (Array.length argv - 1)) in
  match if Array.length sub > 0 then sub.(0) else "" with
  | "run" -> cmd_run sub
  | "record" -> cmd_record sub
  | "compare" -> cmd_compare sub
  | "bless" -> cmd_bless sub
  | _ ->
      prerr_endline "usage: ledger.exe (run|record|compare|bless) [options]";
      exit 2

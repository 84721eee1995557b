(* riq-lint: static bufferability diagnostics for RIQ32 assembly.

   Runs the Riq_analysis pipeline (CFG -> dominators -> natural loops ->
   dataflow -> bufferability) over one or more .s files or
   built-in benchmarks and emits per-finding diagnostics with a severity
   (error / warning / info) and, for assembly files, a file:line: prefix
   derived from the assembler's address-to-line map. Passes:

     loop          one info (or warning, when the loop can never promote)
                   per analysed backward transfer: verdict, predicted
                   unroll, prediction, coverage, predicted revoke cause
     aliasing-store    warning: a store in the window may hit a buffered
                       load's bytes (the Section 2.2.3 revoke condition)
     data-dependent-trip  warning: trip count not statically derivable,
                          promotion prediction degraded to marginal
     no-alias      info: store/load pairs proven disjoint by the
                   value-range analysis
     unreachable   warning: statically unreachable code range
     irreducible   warning: retreating edge whose target does not
                   dominate it

   With --expect, `#=` directives embedded in the assembly comments are
   checked; every mismatch is an error-severity diagnostic and the exit
   status is non-zero when any error was emitted:

     #= loops N                      expect N analysed backward transfers
     #= loop LABEL ok                loop headed at LABEL is bufferable
     #= loop LABEL ok promotes       ... and predicted to reach Code Reuse
     #= loop LABEL inner-loop        non-bufferable, with the given reason
                                     (too-large, inner-loop, call-overflow,
                                     callee-loops, indirect, contains-halt,
                                     side-entry, irreducible)
     #= trip LABEL N                 statically derived trip count is N
     #= risk LABEL aliasing-store    the loop carries that risk; expecting
     #= risk LABEL data-dependent-trip   a risk also suppresses its warning
     #= unreachable N                expect N unreachable ranges; a match
                                     suppresses the unreachable warnings

   With --json FILE, every diagnostic (and per-file loop/coverage summary)
   is written as a "riq-lint/1" JSON document for CI gating. With
   --dynamic, the simulator runs the same program on the same queue size
   and the measured per-loop decisions (including revoke-cause counts) are
   printed next to the predictions. *)

open Cmdliner
open Riq_asm
open Riq_analysis
open Riq_util

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Diagnostics.                                                        *)
(* ------------------------------------------------------------------ *)

type severity = Sev_error | Sev_warn | Sev_info

let severity_to_string = function
  | Sev_error -> "error"
  | Sev_warn -> "warning"
  | Sev_info -> "info"

type diag = {
  d_file : string;
  d_line : int option; (* 1-based source line, when the file is assembly *)
  d_sev : severity;
  d_code : string;
  d_msg : string;
}

let diag_to_string d =
  let pos =
    match d.d_line with
    | Some l -> Printf.sprintf "%s:%d" d.d_file l
    | None -> d.d_file
  in
  Printf.sprintf "%s: %s: [%s] %s" pos (severity_to_string d.d_sev) d.d_code d.d_msg

let reason_keyword = function
  | Bufferability.Too_large _ -> "too-large"
  | Inner_transfer _ -> "inner-loop"
  | Call_overflow _ -> "call-overflow"
  | Callee_loops _ -> "callee-loops"
  | Indirect _ -> "indirect"
  | Contains_halt _ -> "contains-halt"
  | Side_entry -> "side-entry"
  | Irreducible -> "irreducible"

let prediction_string = function
  | Bufferability.Promotes -> "promotes"
  | Never_promotes -> "never"
  | Marginal -> "marginal"

let risk_code = function
  | Bufferability.Aliasing_store _ -> "aliasing-store"
  | Bufferability.Data_dependent_trip -> "data-dependent-trip"

(* ------------------------------------------------------------------ *)
(* Expectation directives.                                             *)
(* ------------------------------------------------------------------ *)

type expect =
  | Exp_loops of int
  | Exp_loop of string * string option * string option (* label, verdict, prediction *)
  | Exp_trip of string * int
  | Exp_risk of string * string (* label, risk code *)
  | Exp_unreachable of int

let parse_expects src =
  let out = ref [] in
  String.split_on_char '\n' src
  |> List.iteri (fun lineno line ->
         let line = String.trim line in
         match String.index_opt line '#' with
         | Some i
           when i + 1 < String.length line
                && line.[i + 1] = '='
                && (i = 0 || line.[0] = '#') -> (
             let d = String.trim (String.sub line (i + 2) (String.length line - i - 2)) in
             match String.split_on_char ' ' d |> List.filter (fun s -> s <> "") with
             | [ "loops"; n ] -> (
                 match int_of_string_opt n with
                 | Some n -> out := Exp_loops n :: !out
                 | None -> failwith (Printf.sprintf "line %d: bad loop count %S" (lineno + 1) n))
             | [ "trip"; label; n ] -> (
                 match int_of_string_opt n with
                 | Some n -> out := Exp_trip (label, n) :: !out
                 | None -> failwith (Printf.sprintf "line %d: bad trip count %S" (lineno + 1) n))
             | [ "risk"; label; kw ] ->
                 if kw <> "aliasing-store" && kw <> "data-dependent-trip" then
                   failwith
                     (Printf.sprintf
                        "line %d: unknown risk %S (aliasing-store or data-dependent-trip)"
                        (lineno + 1) kw);
                 out := Exp_risk (label, kw) :: !out
             | [ "unreachable"; n ] -> (
                 match int_of_string_opt n with
                 | Some n -> out := Exp_unreachable n :: !out
                 | None ->
                     failwith
                       (Printf.sprintf "line %d: bad unreachable count %S" (lineno + 1) n))
             | "loop" :: label :: rest ->
                 let verdict, pred =
                   match rest with
                   | [] -> (None, None)
                   | [ v ] -> (Some v, None)
                   | [ v; p ] -> (Some v, Some p)
                   | _ -> failwith (Printf.sprintf "line %d: bad directive %S" (lineno + 1) d)
                 in
                 out := Exp_loop (label, verdict, pred) :: !out
             | _ -> failwith (Printf.sprintf "line %d: bad directive %S" (lineno + 1) d))
         | _ -> ());
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Lint passes over one report.                                        *)
(* ------------------------------------------------------------------ *)

type ctx = {
  c_name : string;
  c_lines : (int, int) Hashtbl.t option; (* pc -> source line, assembly only *)
  c_program : Program.t;
  c_report : Bufferability.report;
}

let line_of ctx pc = Option.bind ctx.c_lines (fun tbl -> Hashtbl.find_opt tbl pc)

let mk ctx ?pc sev code fmt =
  Printf.ksprintf
    (fun msg ->
      {
        d_file = ctx.c_name;
        d_line = Option.bind pc (line_of ctx);
        d_sev = sev;
        d_code = code;
        d_msg = msg;
      })
    fmt

let pass_loops ctx =
  List.map
    (fun (l : Bufferability.loop_report) ->
      let cov =
        match Bufferability.coverage_of ctx.c_report ~tail:l.tail with
        | Some c -> Printf.sprintf " coverage %.1f%%" c
        | None -> ""
      in
      let trip =
        match l.trip with Some t -> Printf.sprintf " trip %d" t | None -> ""
      in
      let cause =
        match l.predicted_cause with
        | Some c -> ", predicted revoke: " ^ Riq_core.Reuse_state.cause_to_string c
        | None -> ""
      in
      match l.verdict with
      | Ok () ->
          mk ctx ~pc:l.tail Sev_info "loop"
            "loop %08x..%08x span %d depth %d%s%s: bufferable, unroll %d (%s)%s%s%s"
            l.head l.tail l.span l.depth
            (if l.innermost then " innermost" else "")
            trip l.unroll
            (prediction_string l.prediction)
            cov
            (if l.nblt_risk then " [nblt-risk]" else "")
            cause
      | Error r ->
          let sev = if Bufferability.hard_reject r then Sev_warn else Sev_info in
          mk ctx ~pc:l.tail sev "loop"
            "loop %08x..%08x span %d depth %d%s: non-bufferable, %s (%s)%s" l.head
            l.tail l.span l.depth trip
            (Bufferability.reason_to_string r)
            (prediction_string l.prediction)
            cause)
    ctx.c_report.Bufferability.loops

let pass_risks ctx ~suppressed =
  List.concat_map
    (fun (l : Bufferability.loop_report) ->
      List.filter_map
        (fun r ->
          if Hashtbl.mem suppressed (l.Bufferability.head, risk_code r) then None
          else
            Some
              (match r with
              | Bufferability.Aliasing_store { store; load } ->
                  mk ctx ~pc:store Sev_warn "aliasing-store"
                    "store %08x may hit buffered load %08x while loop %08x..%08x buffers \
                     (Section 2.2.3 revoke)"
                    store load l.head l.tail
              | Bufferability.Data_dependent_trip ->
                  mk ctx ~pc:l.tail Sev_warn "data-dependent-trip"
                    "trip count of loop %08x..%08x is data-dependent; promotion \
                     prediction degraded to marginal"
                    l.head l.tail))
        l.Bufferability.risks)
    ctx.c_report.Bufferability.loops

let pass_no_alias ctx =
  List.filter_map
    (fun (l : Bufferability.loop_report) ->
      match l.Bufferability.no_alias with
      | [] -> None
      | claims ->
          Some
            (mk ctx ~pc:l.tail Sev_info "no-alias"
               "loop %08x..%08x: %d store/load pair%s proven disjoint" l.head l.tail
               (List.length claims)
               (if List.length claims = 1 then "" else "s")))
    ctx.c_report.Bufferability.loops

let pass_unreachable ctx =
  List.map
    (fun (first, last) ->
      mk ctx ~pc:first Sev_warn "unreachable"
        "unreachable code %08x..%08x (%d instruction%s)" first last
        ((last - first) / 4 + 1)
        (if last = first then "" else "s"))
    ctx.c_report.Bufferability.unreachable

let pass_irreducible ctx =
  List.map
    (fun (s, d) ->
      mk ctx Sev_warn "irreducible" "irreducible edge B%d -> B%d" s d)
    ctx.c_report.Bufferability.irreducible_edges

(* Expectation check: every mismatch is an error diagnostic; satisfied
   [risk]/[unreachable] expectations suppress the matching warnings. *)
let check_expects ctx expects =
  let report = ctx.c_report in
  let errors = ref [] in
  let err ?pc fmt =
    Printf.ksprintf (fun m -> errors := mk ctx ?pc Sev_error "expect" "%s" m :: !errors) fmt
  in
  let suppressed_risks = Hashtbl.create 4 in
  let suppress_unreachable = ref false in
  let find_loop label k =
    match Program.address_of ctx.c_program label with
    | None -> err "no such label %S" label
    | Some addr -> (
        match
          List.find_opt
            (fun l -> l.Bufferability.head = addr)
            report.Bufferability.loops
        with
        | None -> err "no analysed loop headed at %S (%08x)" label addr
        | Some l -> k l)
  in
  List.iter
    (function
      | Exp_loops n ->
          let got = List.length report.Bufferability.loops in
          if got <> n then err "expected %d loops, analysed %d" n got
      | Exp_loop (label, verdict, pred) ->
          find_loop label (fun l ->
              (match verdict with
              | None -> ()
              | Some v ->
                  let got =
                    match l.Bufferability.verdict with
                    | Ok () -> "ok"
                    | Error r -> reason_keyword r
                  in
                  let v = if v = "bufferable" then "ok" else v in
                  if got <> v then
                    err ~pc:l.Bufferability.tail "loop %S: expected %s, got %s" label v
                      got);
              match pred with
              | None -> ()
              | Some p ->
                  let got = prediction_string l.Bufferability.prediction in
                  if got <> p then
                    err ~pc:l.Bufferability.tail "loop %S: expected prediction %s, got %s"
                      label p got)
      | Exp_trip (label, n) ->
          find_loop label (fun l ->
              match l.Bufferability.trip with
              | Some t when t = n -> ()
              | Some t ->
                  err ~pc:l.Bufferability.tail "loop %S: expected trip %d, derived %d"
                    label n t
              | None ->
                  err ~pc:l.Bufferability.tail
                    "loop %S: expected trip %d, none derived" label n)
      | Exp_risk (label, kw) ->
          find_loop label (fun l ->
              if List.exists (fun r -> risk_code r = kw) l.Bufferability.risks then
                Hashtbl.replace suppressed_risks (l.Bufferability.head, kw) ()
              else
                err ~pc:l.Bufferability.tail "loop %S: expected risk %s not flagged"
                  label kw)
      | Exp_unreachable n ->
          let got = List.length report.Bufferability.unreachable in
          if got = n then suppress_unreachable := true
          else err "expected %d unreachable ranges, found %d" n got)
    expects;
  (List.rev !errors, suppressed_risks, !suppress_unreachable)

(* ------------------------------------------------------------------ *)
(* Dynamic comparison.                                                 *)
(* ------------------------------------------------------------------ *)

let print_dynamic cfg program =
  let open Riq_core in
  let p =
    match Riq_exp.Runner.simulate (Riq_exp.Job.make cfg program) with
    | Ok (p, _) -> p
    | Error e -> failwith (Riq_exp.Outcome.error_to_string e)
  in
  let s = Processor.stats p in
  Printf.printf "  dynamic: %d committed, %d from reuse (%.1f%% coverage)\n"
    s.Processor.committed s.Processor.reuse_committed
    (if s.Processor.committed = 0 then 0.
     else
       100. *. float_of_int s.Processor.reuse_committed /. float_of_int s.Processor.committed);
  List.iter
    (fun d ->
      Printf.printf
        "  dynamic loop %08x..%08x span %3d: %d detections (%d nblt-filtered), %d attempts, %d revokes (inner %d, left %d, overflow %d, mispredict %d), %d promotions, %d reused\n"
        d.Processor.ld_head d.Processor.ld_tail d.Processor.ld_span d.Processor.ld_detections
        d.Processor.ld_nblt_filtered d.Processor.ld_attempts d.Processor.ld_revokes
        d.Processor.ld_rv_inner d.Processor.ld_rv_left d.Processor.ld_rv_overflow
        d.Processor.ld_rv_mispredict d.Processor.ld_promotions d.Processor.ld_reuse_committed)
    (Processor.loop_decisions p)

(* ------------------------------------------------------------------ *)
(* JSON emitter.                                                       *)
(* ------------------------------------------------------------------ *)

let schema = "riq-lint/1"

let diag_json d =
  Json.Obj
    [
      ("file", Json.String d.d_file);
      ("line", match d.d_line with Some l -> Json.Int l | None -> Json.Null);
      ("severity", Json.String (severity_to_string d.d_sev));
      ("code", Json.String d.d_code);
      ("message", Json.String d.d_msg);
    ]

let emit_json path ~iq results =
  let count sev =
    List.fold_left
      (fun acc (_, _, diags) ->
        acc + List.length (List.filter (fun d -> d.d_sev = sev) diags))
      0 results
  in
  Json.to_file path
    (Json.Obj
       [
         ("schema", Json.String schema);
         ("revision", Json.String Riq_exp.Revision.stamp);
         ("iq_size", Json.Int iq);
         ( "files",
           Json.List
             (List.map
                (fun (name, (report : Bufferability.report), diags) ->
                  Json.Obj
                    [
                      ("name", Json.String name);
                      ("loops", Json.Int (List.length report.Bufferability.loops));
                      ( "coverage",
                        match report.Bufferability.coverage with
                        | Some c -> Json.Float c
                        | None -> Json.Null );
                      ("diagnostics", Json.List (List.map diag_json diags));
                    ])
                results) );
         ("errors", Json.Int (count Sev_error));
         ("warnings", Json.Int (count Sev_warn));
         ("infos", Json.Int (count Sev_info));
       ])

(* ------------------------------------------------------------------ *)

let lint_one ~cfg ~expect ~dynamic (name, src_opt, lines_opt, program) =
  let report = Bufferability.analyze_config cfg program in
  let ctx = { c_name = name; c_lines = lines_opt; c_program = program; c_report = report } in
  let expect_diags, suppressed_risks, suppress_unreachable =
    match (expect, src_opt) with
    | false, _ -> ([], Hashtbl.create 0, false)
    | true, None ->
        failwith "--expect requires assembly files (directives live in comments)"
    | true, Some src -> check_expects ctx (parse_expects src)
  in
  (* A risk the directives expect is acknowledged, not news. *)
  let risk_diags = pass_risks ctx ~suppressed:suppressed_risks in
  let diags =
    pass_loops ctx @ risk_diags @ pass_no_alias ctx
    @ (if suppress_unreachable then [] else pass_unreachable ctx)
    @ pass_irreducible ctx @ expect_diags
  in
  Printf.printf "%s: iq %d, %d loop%s analysed%s\n" name cfg.Riq_ooo.Config.iq_entries
    (List.length report.Bufferability.loops)
    (if List.length report.Bufferability.loops = 1 then "" else "s")
    (if report.Bufferability.exact_trips then "" else " (some trip counts estimated)");
  List.iter (fun d -> Printf.printf "  %s\n" (diag_to_string d)) diags;
  (match report.Bufferability.coverage with
  | Some c -> Printf.printf "  predicted reuse coverage %.1f%% of committed instructions\n" c
  | None -> ());
  if dynamic then print_dynamic cfg program;
  (name, report, diags)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("riq-lint: " ^ s); exit 2) fmt

let main files benches iq single expect dynamic json_out =
  if expect && benches <> [] then
    die "--expect requires assembly files (directives live in comments), not --bench";
  (* One configuration for both halves: the static prediction and the
     measured run (--dynamic) model the same queue and strategy. *)
  let cfg =
    match Riq_ooo.Config.with_iq_size Riq_ooo.Config.reuse iq with
    | cfg -> { cfg with Riq_ooo.Config.buffer_multiple_iterations = not single }
    | exception Invalid_argument _ -> die "--iq %d: the issue queue needs at least 8 entries" iq
  in
  let jobs =
    List.map
      (fun path ->
        let src = read_file path in
        match Parse.program_with_lines src with
        | Ok (program, lines) -> (Filename.basename path, Some src, Some lines, program)
        | Error msg -> die "%s: %s" path msg)
      files
    @ List.map
        (fun b ->
          match
            List.find_opt
              (fun w -> w.Riq_workloads.Workloads.name = b)
              Riq_workloads.Workloads.all
          with
          | Some w -> (b, None, None, Riq_workloads.Workloads.program w)
          | None ->
              die "unknown benchmark %S (try one of: %s, or all)" b
                (String.concat ", "
                   (List.map (fun w -> w.Riq_workloads.Workloads.name) Riq_workloads.Workloads.all)))
        (if benches = [ "all" ] then
           List.map (fun w -> w.Riq_workloads.Workloads.name) Riq_workloads.Workloads.all
         else benches)
  in
  if jobs = [] then begin
    prerr_endline "riq-lint: nothing to do (give .s files or --bench)";
    exit 2
  end;
  (* Lint every file even after one fails: the error count, not a
     short-circuiting fold, decides the exit status. *)
  let results =
    List.map
      (fun job ->
        try lint_one ~cfg ~expect ~dynamic job
        with Failure msg ->
          let name, _, _, _ = job in
          die "%s: %s" name msg)
      jobs
  in
  (match json_out with Some path -> emit_json path ~iq results | None -> ());
  let count sev =
    List.fold_left
      (fun acc (_, _, diags) ->
        acc + List.length (List.filter (fun d -> d.d_sev = sev) diags))
      0 results
  in
  let errors = count Sev_error and warnings = count Sev_warn in
  if errors > 0 || warnings > 0 then
    Printf.printf "%d error%s, %d warning%s\n" errors
      (if errors = 1 then "" else "s")
      warnings
      (if warnings = 1 then "" else "s");
  if errors > 0 then exit 1

let cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE.s" ~doc:"RIQ32 assembly files to lint.")
  in
  let benches =
    Arg.(value & opt_all string [] & info [ "bench"; "b" ] ~docv:"NAME"
           ~doc:"Built-in benchmark to lint ($(b,all) for every one).")
  in
  let iq =
    Arg.(value & opt int 32 & info [ "iq" ] ~docv:"N" ~doc:"Issue queue size to lint against.")
  in
  let single =
    Arg.(value & flag & info [ "single-iter" ]
           ~doc:"Model single-iteration buffering (the paper's strategy 1).")
  in
  let expect =
    Arg.(value & flag & info [ "expect" ]
           ~doc:"Check $(b,#=) expectation directives; exit non-zero on mismatch.")
  in
  let dynamic =
    Arg.(value & flag & info [ "dynamic" ]
           ~doc:"Also run the simulator and print the measured per-loop decisions.")
  in
  let json_out =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write all diagnostics as a $(b,riq-lint/1) JSON document to $(docv).")
  in
  Cmd.v
    (Cmd.info "riq-lint" ~version:"%%VERSION%%"
       ~doc:"Static loop-bufferability lint for the reusable issue queue")
    Term.(const main $ files $ benches $ iq $ single $ expect $ dynamic $ json_out)

let () = exit (Cmd.eval cmd)

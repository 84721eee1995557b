(* Ledger files: a set of runs stamped with host and revision, and the
   comparison of two such sets against BENCHMARK.json's bounds. *)

open Riq_util

let schema = "riq-ledger/1"

(* One run's result line, as Run prints it. *)
let result_json (r : Run.result) =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
             r.metrics) );
    ]

let first_line cmd =
  match Unix.open_process_args_in cmd.(0) cmd with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let line = In_channel.input_line ic in
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None)

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
      Option.value ~default:"unknown"
        (List.find_map
           (fun l ->
             match String.index_opt l ':' with
             | Some i when String.length l > 10 && String.sub l 0 10 = "model name" ->
                 Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
             | _ -> None)
           (String.split_on_char '\n' text))

let stamp () =
  let t = Unix.gmtime (Unix.time ()) in
  [
    ( "host",
      Json.Obj
        [
          ("nproc", Json.Int (Domain.recommended_domain_count ()));
          ("cpu", Json.String (cpu_model ()));
        ] );
    ( "git_revision",
      Json.String (Option.value ~default:"unknown" (first_line [| "git"; "rev-parse"; "HEAD" |])) );
    ("revision_stamp", Json.String Riq_exp.Revision.stamp);
    ( "date",
      Json.String
        (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900) (t.tm_mon + 1) t.tm_mday
           t.tm_hour t.tm_min t.tm_sec) );
  ]

type run = { workload : string; seed : int; trace : bool; doc : Json.t }

let runs_of doc =
  match Option.bind (Json.member "runs" doc) Json.to_list with
  | None -> failwith "ledger file has no runs"
  | Some l ->
      List.map
        (fun j ->
          let str k = Option.bind (Json.member k j) Json.to_str in
          let int k = Option.bind (Json.member k j) Json.to_int in
          match (str "workload", int "seed", Json.member "result" j) with
          | Some workload, Some seed, Some doc ->
              { workload; seed; trace = Json.member "trace" j = Some (Json.Bool true); doc }
          | _ -> failwith "malformed run entry")
        l

let to_json ~seconds runs =
  Json.Obj
    ([ ("schema", Json.String schema) ]
    @ stamp ()
    @ [
        ("seconds", Json.Int seconds);
        ( "runs",
          Json.List
            (List.map
               (fun r ->
                 Json.Obj
                   [
                     ("workload", Json.String r.workload);
                     ("seed", Json.Int r.seed);
                     ("trace", Json.Bool r.trace);
                     ("result", r.doc);
                   ])
               runs) );
      ])

let metric_value doc name =
  Option.bind
    (Option.bind (Option.bind (Json.member "metrics" doc) (Json.member name)) (Json.member "value"))
    Json.to_float_opt

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

type verdict = Within | Worse | Unresolved

let verdict_to_string = function Within -> "within" | Worse -> "worse" | Unresolved -> "unresolved"

type row = {
  r_workload : string;
  r_metric : string;
  a : float * float * float; (* q1, median, q3 *)
  b : float * float * float;
  rel : float; (* (median b - median a) / median a *)
  verdict : verdict;
}

let spread (q1, m, q3) = Stats.ratio (q3 -. q1) m

(* A pair is worse when B's median is worse than A's by more than the
   bound; unresolved when either side's interquartile spread is wider
   than the bound, unless every run of B beats every run of A. *)
let judge (m : Spec.metric) ~bound av bv =
  let a = Measure.quartiles av and b = Measure.quartiles bv in
  let _, ma, _ = a and _, mb, _ = b in
  let rel = Stats.ratio (mb -. ma) ma in
  let worse_by = if m.lower_is_better then rel else -.rel in
  let better_everywhere =
    if m.lower_is_better then Array.fold_left max neg_infinity bv < Array.fold_left min infinity av
    else Array.fold_left min infinity bv > Array.fold_left max neg_infinity av
  in
  let verdict =
    if better_everywhere then Within
    else if spread a > bound || spread b > bound then Unresolved
    else if worse_by > bound then Worse
    else Within
  in
  (a, b, rel, verdict)

let compare_runs (spec : Spec.benchmark) a_runs b_runs =
  List.concat_map
    (fun w ->
      List.filter_map
        (fun (m : Spec.metric) ->
          let values runs =
            Array.of_list
              (List.filter_map
                 (fun r ->
                   if r.workload = w && not r.trace then metric_value r.doc m.name else None)
                 runs)
          in
          let av = values a_runs and bv = values b_runs in
          match m.bound with
          | Some bound when Array.length av >= 2 && Array.length bv >= 2 ->
              let a, b, rel, verdict = judge m ~bound av bv in
              Some { r_workload = w; r_metric = m.name; a; b; rel; verdict }
          | _ -> None)
        spec.e2e)
    spec.workload_names

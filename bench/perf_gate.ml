(* CI performance gate for the packed-core hot loop.

   Measures aggregate simulator throughput — committed instructions per
   CPU second, min-of-N timing per (workload, config) cell to shed
   scheduler noise — and compares it against the committed baseline in
   bench/perf_baseline.json. The baseline is deliberately conservative
   (roughly a third of the development-machine figure) because absolute
   throughput varies across CI hosts; combined with the default 30%
   tolerance the gate catches order-of-magnitude regressions (e.g.
   reintroducing per-cycle allocation in the issue/wakeup path), not
   single-digit drift.

   Exit status is the contract: 0 = within tolerance, 1 = regression,
   2 = usage/baseline error. *)

open Riq_util
open Riq_ooo
open Riq_core
open Riq_workloads

type cell = {
  bench : string;
  config : string;
  insns : int;
  seconds : float;
}

let measure ~repeats =
  List.concat_map
    (fun w ->
      let program = Workloads.program w in
      List.map
        (fun (config, cfg) ->
          let best = ref infinity and insns = ref 0 in
          for _ = 1 to repeats do
            let p = Processor.create cfg program in
            let t0 = (Unix.times ()).Unix.tms_utime in
            (match Processor.run p with
            | Processor.Halted -> ()
            | Processor.Cycle_limit ->
                Printf.eprintf "perf_gate: %s/%s hit the cycle limit\n" w.Workloads.name
                  config;
                exit 2);
            let dt = (Unix.times ()).Unix.tms_utime -. t0 in
            if dt < !best then best := dt;
            insns := Processor.committed p
          done;
          { bench = w.Workloads.name; config; insns = !insns; seconds = !best })
        [ ("baseline", Config.baseline); ("reuse", Config.reuse) ])
    Workloads.all

let minsns cells =
  let i = List.fold_left (fun a c -> a + c.insns) 0 cells in
  let s = List.fold_left (fun a c -> a +. c.seconds) 0. cells in
  if s > 0. then float_of_int i /. s /. 1e6 else 0.

let to_json cells =
  Json.Obj
    [
      ("schema", Json.String "riq-perf/1");
      ("minsns_per_sec", Json.Float (minsns cells));
      ( "committed_insns",
        Json.Int (List.fold_left (fun a c -> a + c.insns) 0 cells) );
      ( "cpu_seconds",
        Json.Float (List.fold_left (fun a c -> a +. c.seconds) 0. cells) );
      ( "cells",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("benchmark", Json.String c.bench);
                   ("config", Json.String c.config);
                   ("committed_insns", Json.Int c.insns);
                   ("cpu_seconds", Json.Float c.seconds);
                   ( "minsns_per_sec",
                     Json.Float
                       (if c.seconds > 0. then
                          float_of_int c.insns /. c.seconds /. 1e6
                        else 0.) );
                 ])
             cells) );
    ]

let read_baseline path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Json.of_string s with
  | Error e ->
      Printf.eprintf "perf_gate: %s: %s\n" path e;
      exit 2
  | Ok doc -> (
      match Option.bind (Json.member "min_minsns_per_sec" doc) Json.to_float_opt with
      | Some v -> v
      | None ->
          Printf.eprintf "perf_gate: %s: missing min_minsns_per_sec\n" path;
          exit 2)

let () =
  let baseline = ref "bench/perf_baseline.json" in
  let tolerance = ref 0.30 in
  let repeats = ref 3 in
  let json_out = ref "" in
  let update = ref false in
  Arg.parse
    [
      ("--baseline", Arg.Set_string baseline, "FILE committed baseline JSON");
      ("--tolerance", Arg.Set_float tolerance, "F allowed fractional drop (default 0.30)");
      ("--repeats", Arg.Set_int repeats, "N timing repeats per cell (default 3)");
      ("--json", Arg.Set_string json_out, "FILE write the measured cells as JSON");
      ( "--update",
        Arg.Set update,
        " rewrite the baseline from this run (divided by 3, conservatively)" );
    ]
    (fun a ->
      Printf.eprintf "perf_gate: unexpected argument %s\n" a;
      exit 2)
    "perf_gate: simulator-throughput regression gate";
  let cells = measure ~repeats:!repeats in
  List.iter
    (fun c ->
      Printf.printf "%-8s %-8s %8d insns  %8.4f s  %7.3f Minsns/s\n" c.bench c.config
        c.insns c.seconds
        (if c.seconds > 0. then float_of_int c.insns /. c.seconds /. 1e6 else 0.))
    cells;
  let measured = minsns cells in
  Printf.printf "AGGREGATE %.3f Minsns/s\n" measured;
  if !json_out <> "" then Json.to_file !json_out (to_json cells);
  if !update then begin
    Json.to_file !baseline
      (Json.Obj
         [
           ("schema", Json.String "riq-perf-baseline/1");
           ("min_minsns_per_sec", Json.Float (measured /. 3.));
           ( "note",
             Json.String
               "Conservative floor (measured/3 at update time); the gate fails \
                below (1 - tolerance) x this." );
         ]);
    Printf.printf "baseline updated: %s (floor %.3f Minsns/s)\n" !baseline (measured /. 3.)
  end
  else begin
    let floor_v = read_baseline !baseline in
    let gate = floor_v *. (1. -. !tolerance) in
    Printf.printf "baseline floor %.3f, gate %.3f (tolerance %.0f%%)\n" floor_v gate
      (100. *. !tolerance);
    if measured < gate then begin
      Printf.eprintf
        "perf_gate: REGRESSION: %.3f Minsns/s is below the gate of %.3f\n" measured gate;
      exit 1
    end
    else print_endline "perf gate: PASS"
  end

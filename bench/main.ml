(* Benchmark harness: regenerates every table and figure of the paper
   (the experiment harness proper) — Table 1, Table 2, Figures 5-9, plus
   the NBLT and buffering-strategy ablations called out in the text.
   Every simulation behind these numbers is differentially validated
   against the functional reference simulator.

   Run with: dune exec bench/main.exe
   (--jobs N parallelizes the figure regeneration over N worker
   processes, --no-cache disables the on-disk result cache, --serve ADDR
   runs the simulations through a riq-sim serve daemon instead of local
   workers)

   The sweep behind Figures 5-8 is also exported machine-readably to
   BENCH_sweep.json so the performance trajectory is comparable across
   revisions. The simulator's own speed is measured by perfledger/ (per
   layer and end to end) and gated by bench/perf_gate.exe. *)

open Riq_util
open Riq_harness

let run_figures ~jobs ~use_cache ~serve () =
  print_endline "==============================================================";
  print_endline " Reproduction of Hu et al., \"Scheduling Reusable Instructions";
  print_endline " for Power Reduction\" (DATE 2004) — all tables and figures";
  print_endline "==============================================================";
  print_newline ();
  print_endline "Table 1. The baseline configuration.";
  print_string (Figures.table1 ());
  print_newline ();
  Table.print (Figures.table2 ());
  print_newline ();
  let engine =
    let on_progress p =
      Printf.eprintf "\r[engine] %d/%d done (%d cached, %d simulated)%!"
        p.Riq_exp.Engine.finished p.Riq_exp.Engine.total p.Riq_exp.Engine.cache_hits
        p.Riq_exp.Engine.executed;
      if p.Riq_exp.Engine.finished = p.Riq_exp.Engine.total then Printf.eprintf "\n%!"
    in
    match serve with
    | Some addr ->
        let client =
          Riq_svc.Client.connect ~klass:Riq_svc.Protocol.Batch
            (Riq_svc.Protocol.address_of_string addr)
        in
        Riq_exp.Engine.create ~backend:(Riq_svc.Client.backend client) ~on_progress ()
    | None ->
        let cache = if use_cache then Some (Riq_exp.Cache.open_ ()) else None in
        Riq_exp.Engine.create ~workers:jobs ?cache ~on_progress ()
  in
  let t0 = Unix.gettimeofday () in
  let sweep = Sweep.run ~engine ~check:true () in
  Printf.printf "(sweep of %d simulations finished in %.1f s; every run validated\n"
    (2 * List.length sweep.Sweep.sizes * List.length sweep.Sweep.cells)
    (Unix.gettimeofday () -. t0);
  print_endline " against the functional reference simulator)";
  Riq_util.Json.to_file "BENCH_sweep.json" (Sweep.to_json ~engine sweep);
  print_endline "(per-cell sweep statistics written to BENCH_sweep.json)";
  print_newline ();
  Table.print (Figures.fig5 sweep);
  print_newline ();
  Table.print (Figures.fig6 sweep);
  print_newline ();
  Table.print (Figures.fig7 sweep);
  print_newline ();
  Table.print (Figures.fig8 sweep);
  print_newline ();
  Table.print (Figures.fig9 ~engine ~check:true ());
  print_newline ();
  Table.print (Figures.nblt_ablation ~engine ~check:true ());
  print_newline ();
  Table.print (Figures.strategy_ablation ~engine ~check:true ());
  print_newline ();
  Table.print (Figures.related_work ~engine ~check:true ~iq_size:64 ());
  print_newline ();
  Table.print (Figures.related_work ~engine ~check:true ~iq_size:256 ());
  print_newline ();
  Table.print (Figures.predictor_ablation ~engine ~check:true ());
  print_newline ();
  Table.print (Figures.unroll_ablation ~engine ~check:true ());
  print_newline ();
  let s = Riq_exp.Engine.stats engine in
  Printf.printf
    "(engine totals: %d jobs = %d cache hits + %d deduped + %d simulated; %.1f s wall,\n\
    \ %d workers at %.0f%% utilization)\n"
    s.Riq_exp.Engine.jobs s.Riq_exp.Engine.cache_hits s.Riq_exp.Engine.deduped
    s.Riq_exp.Engine.executed s.Riq_exp.Engine.wall_seconds
    (Riq_exp.Engine.workers engine)
    (100. *. Riq_exp.Engine.utilization engine);
  print_newline ()

let () =
  let args = Array.to_list Sys.argv in
  let use_cache = not (List.mem "--no-cache" args) in
  let jobs =
    let rec find = function
      | "--jobs" :: n :: _ | "-j" :: n :: _ -> (
          match int_of_string_opt n with
          | Some n when n >= 1 -> n
          | _ -> failwith "bench: --jobs expects a positive integer"
          )
      | _ :: rest -> find rest
      | [] -> 1
    in
    find args
  in
  let serve =
    let rec find = function
      | "--serve" :: addr :: _ -> Some addr
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  run_figures ~jobs ~use_cache ~serve ()

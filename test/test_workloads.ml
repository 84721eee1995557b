open Riq_loopir
open Riq_workloads

let test_all_present () =
  Alcotest.(check (list string))
    "Table 2 order"
    [ "adi"; "aps"; "btrix"; "eflux"; "tomcat"; "tsf"; "vpenta"; "wss" ]
    (List.map (fun w -> w.Workloads.name) Workloads.all)

let test_all_validate () =
  List.iter
    (fun w ->
      match Ir.validate w.Workloads.ir with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" w.Workloads.name m)
    Workloads.all

let test_all_compile () =
  List.iter
    (fun w ->
      let p = Workloads.program w in
      Alcotest.(check bool)
        (w.Workloads.name ^ " non-trivial")
        true
        (Array.length p.Riq_asm.Program.code > 50);
      let o = Workloads.optimized w in
      Alcotest.(check bool)
        (w.Workloads.name ^ " optimized compiles")
        true
        (Array.length o.Riq_asm.Program.code > 50))
    Workloads.all

(* The paper's per-benchmark classification (Section 3): aps, tsf and wss
   are dominated by loops a 32-entry queue captures; the other five need
   128 or 256 entries for their dominant loops. *)
let innermost_sizes w =
  List.filter_map
    (fun li -> if li.Codegen.li_innermost then Some li.Codegen.li_body_insns else None)
    (Workloads.loop_profile w)

let test_small_loop_benchmarks () =
  List.iter
    (fun name ->
      let sizes = innermost_sizes (Workloads.find name) in
      Alcotest.(check bool)
        (name ^ " has a 32-capturable loop")
        true
        (List.exists (fun s -> s <= 32) sizes);
      Alcotest.(check bool)
        (name ^ " dominant loops fit 32")
        true
        (List.for_all (fun s -> s <= 32) sizes))
    [ "aps"; "tsf"; "wss" ]

let test_large_loop_benchmarks () =
  List.iter
    (fun name ->
      let sizes = innermost_sizes (Workloads.find name) in
      Alcotest.(check bool)
        (name ^ " has a loop beyond 64 entries")
        true
        (List.exists (fun s -> s > 64) sizes))
    [ "adi"; "eflux"; "tomcat"; "vpenta" ]

let test_btrix_call_loop () =
  (* btrix's dominant loop is statically tiny but dynamically ~90
     instructions because of the procedure call (Section 2.2.2) *)
  let w = Workloads.find "btrix" in
  let sizes =
    List.map (fun li -> (li.Codegen.li_var, li.Codegen.li_body_insns)) (Workloads.loop_profile w)
  in
  match List.assoc_opt "jj" sizes with
  | Some s -> Alcotest.(check bool) "call loop is statically small" true (s <= 8)
  | None -> Alcotest.fail "btrix jj loop missing"

let test_distribution_effect () =
  (* Section 4 targets: distribution must shrink the dominant bodies of
     at least vpenta and tomcat below 64. *)
  List.iter
    (fun name ->
      let w = Workloads.find name in
      let _, infos = Codegen.compile_info (Workloads.optimized_ir w) in
      let inner =
        List.filter_map
          (fun li -> if li.Codegen.li_innermost then Some li.Codegen.li_body_insns else None)
          infos
      in
      Alcotest.(check bool)
        (name ^ " distributed loops fit 64")
        true
        (List.for_all (fun s -> s <= 64) inner))
    [ "vpenta"; "tomcat"; "adi" ]

let test_find () =
  Alcotest.(check string) "find" "tsf" (Workloads.find "tsf").Workloads.name;
  Alcotest.(check bool) "missing raises" true
    (try
       ignore (Workloads.find "nope");
       false
     with Not_found -> true)

let suites =
  [
    ( "workloads",
      [
        Alcotest.test_case "table 2 contents" `Quick test_all_present;
        Alcotest.test_case "all validate" `Quick test_all_validate;
        Alcotest.test_case "all compile" `Quick test_all_compile;
        Alcotest.test_case "small-loop class" `Quick test_small_loop_benchmarks;
        Alcotest.test_case "large-loop class" `Quick test_large_loop_benchmarks;
        Alcotest.test_case "btrix call loop" `Quick test_btrix_call_loop;
        Alcotest.test_case "distribution shrinks bodies" `Quick test_distribution_effect;
        Alcotest.test_case "find" `Quick test_find;
      ] );
  ]

open Riq_interp
open Riq_loopir

(* shorthands *)
let ic n = Ir.Iconst n
let iv x = Ir.Ivar x
let ( +! ) a b = Ir.Iadd (a, b)
let ( -! ) a b = Ir.Isub (a, b)
let ( *! ) a b = Ir.Imul (a, b)
let fc x = Ir.Fconst x
let fv x = Ir.Fvar x
let fadd a b = Ir.Fadd (a, b)
let fmul a b = Ir.Fmul (a, b)
let ld a s = Ir.Fload (a, s)
let st a s e = Ir.Sfstore (a, s, e)
let for_ var lo hi body = Ir.Sfor { var; lo; hi; body }
let farr name dims = { Ir.a_name = name; a_dims = dims; a_init = `Index_pattern; a_float = true }
let farr0 name dims = { Ir.a_name = name; a_dims = dims; a_init = `Zero; a_float = true }

let prog ?(arrays = []) ?(ints = []) ?(floats = []) ?(procs = []) main =
  { Ir.arrays; int_scalars = ints; float_scalars = floats; procs; main }

(* ---- validation ---- *)

let expect_invalid p =
  match Ir.validate p with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected validation error"

let test_validate_ok () =
  let p =
    prog ~arrays:[ farr "a" [ 4 ] ] ~floats:[ "s" ]
      [ for_ "i" (ic 0) (ic 4) [ Ir.Sfassign ("s", fadd (fv "s") (ld "a" [ iv "i" ])) ] ]
  in
  match Ir.validate p with Ok () -> () | Error m -> Alcotest.fail m

let test_validate_errors () =
  expect_invalid (prog [ Ir.Sfassign ("nope", fc 1.) ]);
  expect_invalid (prog [ st "ghost" [ ic 0 ] (fc 1.) ]);
  expect_invalid
    (prog ~arrays:[ farr "a" [ 4; 4 ] ] [ st "a" [ ic 0 ] (fc 1.) ] (* wrong arity *));
  expect_invalid (prog [ Ir.Scall "missing" ]);
  expect_invalid
    (prog ~procs:[ ("r", [ Ir.Scall "r" ]) ] [ Ir.Scall "r" ] (* recursion *));
  expect_invalid
    (prog ~ints:[ "i" ] [ for_ "i" (ic 0) (ic 2) [ Ir.Siassign ("i", ic 0) ] ])

(* ---- codegen + interp ---- *)

let run_ir p =
  (match Ir.validate p with Ok () -> () | Error m -> Alcotest.fail m);
  let program = Codegen.compile p in
  let m = Machine.create program in
  match Machine.run ~limit:10_000_000 m with
  | Machine.Halted -> (program, m)
  | _ -> Alcotest.fail "IR program did not halt"

(* Compare the data contents of every declared array between two runs;
   the text segments legitimately differ after transformation. *)
let arrays_equal p (prog1, m1) (prog2, m2) =
  List.for_all
    (fun (a : Ir.array_decl) ->
      let n = List.fold_left ( * ) 1 a.Ir.a_dims in
      let b1 = Option.get (Riq_asm.Program.address_of prog1 ("g_" ^ a.Ir.a_name)) in
      let b2 = Option.get (Riq_asm.Program.address_of prog2 ("g_" ^ a.Ir.a_name)) in
      let ok = ref true in
      for k = 0 to n - 1 do
        if
          Riq_mem.Store.read_word (Machine.mem m1) (b1 + (4 * k))
          <> Riq_mem.Store.read_word (Machine.mem m2) (b2 + (4 * k))
        then ok := false
      done;
      !ok)
    p.Ir.arrays

let read_cell program m arr idx =
  let base = Option.get (Riq_asm.Program.address_of program ("g_" ^ arr)) in
  Riq_mem.Store.read_float (Machine.mem m) (base + (4 * idx))

let test_codegen_saxpy () =
  let n = 8 in
  let p =
    prog
      ~arrays:[ farr "x" [ n ]; farr0 "y" [ n ] ]
      [
        for_ "i" (ic 0) (ic n)
          [ st "y" [ iv "i" ] (fmul (fc 2.0) (ld "x" [ iv "i" ])) ];
      ]
  in
  let program, m = run_ir p in
  for k = 0 to n - 1 do
    let expected = 2.0 *. (1.0 +. (float_of_int (k mod 13) *. 0.25)) in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "y[%d]" k)
      expected
      (read_cell program m "y" k)
  done

let test_codegen_2d_rowmajor () =
  let p =
    prog
      ~arrays:[ farr0 "a" [ 3; 4 ] ]
      [
        for_ "i" (ic 0) (ic 3)
          [
            for_ "j" (ic 0) (ic 4)
              [ st "a" [ iv "i"; iv "j" ] (Ir.Fofint ((iv "i" *! ic 10) +! iv "j")) ];
          ];
      ]
  in
  let program, m = run_ir p in
  Alcotest.(check (float 0.)) "a[2][3]" 23. (read_cell program m "a" ((2 * 4) + 3));
  Alcotest.(check (float 0.)) "a[1][0]" 10. (read_cell program m "a" 4)

let test_codegen_zero_trip () =
  let p =
    prog ~arrays:[ farr0 "a" [ 2 ] ]
      [ for_ "i" (ic 5) (ic 5) [ st "a" [ ic 0 ] (fc 9.) ] ]
  in
  let program, m = run_ir p in
  Alcotest.(check (float 0.)) "never ran" 0. (read_cell program m "a" 0)

let test_codegen_if_else () =
  let p =
    prog ~arrays:[ farr0 "a" [ 4 ] ] ~ints:[ "k" ]
      [
        for_ "i" (ic 0) (ic 4)
          [
            Ir.Sif
              ( Ir.Cilt (iv "i", ic 2),
                [ st "a" [ iv "i" ] (fc 1.) ],
                [ st "a" [ iv "i" ] (fc 2.) ] );
          ];
      ]
  in
  let program, m = run_ir p in
  Alcotest.(check (float 0.)) "then" 1. (read_cell program m "a" 0);
  Alcotest.(check (float 0.)) "else" 2. (read_cell program m "a" 3)

let test_codegen_procedures () =
  let p =
    prog ~arrays:[ farr0 "a" [ 1 ] ] ~floats:[ "acc" ]
      ~procs:[ ("inc", [ Ir.Sfassign ("acc", fadd (fv "acc") (fc 1.)) ]) ]
      [
        for_ "i" (ic 0) (ic 10) [ Ir.Scall "inc" ];
        st "a" [ ic 0 ] (fv "acc");
      ]
  in
  let program, m = run_ir p in
  Alcotest.(check (float 0.)) "ten calls" 10. (read_cell program m "a" 0)

let test_codegen_scalar_spill () =
  (* more float scalars than the register pool: force memory homes *)
  let names = List.init 24 (fun i -> Printf.sprintf "s%d" i) in
  let assigns = List.map (fun n -> Ir.Sfassign (n, fc 1.)) names in
  let sum = List.fold_left (fun acc n -> fadd acc (fv n)) (fc 0.) names in
  let p =
    prog ~arrays:[ farr0 "a" [ 1 ] ] ~floats:names (assigns @ [ st "a" [ ic 0 ] sum ])
  in
  let program, m = run_ir p in
  Alcotest.(check (float 0.)) "spilled scalars" 24. (read_cell program m "a" 0)

let test_codegen_int_array () =
  let p =
    prog
      ~arrays:[ { Ir.a_name = "k"; a_dims = [ 4 ]; a_init = `Zero; a_float = false };
                farr0 "out" [ 4 ] ]
      [
        for_ "i" (ic 0) (ic 4) [ Ir.Sistore ("k", [ iv "i" ], iv "i" *! ic 3) ];
        for_ "j" (ic 0) (ic 4)
          [ st "out" [ iv "j" ] (Ir.Fofint (Ir.Iload ("k", [ iv "j" ]))) ];
      ]
  in
  let program, m = run_ir p in
  Alcotest.(check (float 0.)) "indirect" 9. (read_cell program m "out" 3)

(* ---- dependence analysis ---- *)

let dep p a b = Distribute.statement_dependence p ~loop_var:"i" a b

let empty_env arrays = prog ~arrays []

let test_dep_independent () =
  let p = empty_env [ farr "x" [ 8 ]; farr0 "y" [ 8 ]; farr0 "z" [ 8 ] ] in
  let s1 = st "y" [ iv "i" ] (ld "x" [ iv "i" ]) in
  let s2 = st "z" [ iv "i" ] (ld "x" [ iv "i" ]) in
  Alcotest.(check bool) "no dep" true (dep p s1 s2 = Distribute.No_dep)

let test_dep_forward_flow () =
  let p = empty_env [ farr "x" [ 8 ]; farr0 "y" [ 8 ]; farr0 "z" [ 8 ] ] in
  let s1 = st "y" [ iv "i" ] (ld "x" [ iv "i" ]) in
  let s2 = st "z" [ iv "i" ] (ld "y" [ iv "i" ]) in
  Alcotest.(check bool) "forward" true (dep p s1 s2 = Distribute.Forward)

let test_dep_forward_carried () =
  let p = empty_env [ farr "x" [ 8 ]; farr0 "y" [ 8 ]; farr0 "z" [ 8 ] ] in
  let s1 = st "y" [ iv "i" ] (ld "x" [ iv "i" ]) in
  let s2 = st "z" [ iv "i" ] (ld "y" [ iv "i" -! ic 1 ]) in
  Alcotest.(check bool) "carried forward" true (dep p s1 s2 = Distribute.Forward)

let test_dep_backward_anti () =
  let p = empty_env [ farr "x" [ 8 ]; farr0 "y" [ 8 ]; farr0 "z" [ 8 ] ] in
  (* s2 reads y[i+1], which s1 writes in the NEXT iteration: an
     anti-dependence from the second statement back to the first, so the
     consumer loop would have to run first — a backward edge. *)
  let s1 = st "y" [ iv "i" ] (ld "x" [ iv "i" ]) in
  let s2 = st "z" [ iv "i" ] (ld "y" [ iv "i" +! ic 1 ]) in
  Alcotest.(check bool) "backward" true (dep p s1 s2 = Distribute.Backward)

let test_dep_scalar_merge () =
  let p =
    { (empty_env [ farr "x" [ 8 ]; farr0 "y" [ 8 ] ]) with Ir.float_scalars = [ "t" ] }
  in
  let s1 = Ir.Sfassign ("t", ld "x" [ iv "i" ]) in
  let s2 = st "y" [ iv "i" ] (fv "t") in
  Alcotest.(check bool) "scalar forces cycle" true (dep p s1 s2 = Distribute.Both)

let test_dep_disjoint_constants () =
  let p = empty_env [ farr0 "y" [ 8; 8 ] ] in
  let s1 = st "y" [ ic 0; iv "i" ] (fc 1.) in
  let s2 = st "y" [ ic 1; iv "i" ] (fc 2.) in
  Alcotest.(check bool) "disjoint rows" true (dep p s1 s2 = Distribute.No_dep)

let test_dep_complex_conservative () =
  let p =
    empty_env
      [ farr0 "y" [ 64 ]; { Ir.a_name = "idx"; a_dims = [ 64 ]; a_init = `Zero; a_float = false } ]
  in
  let s1 = st "y" [ Ir.Iload ("idx", [ iv "i" ]) ] (fc 1.) in
  let s2 = st "y" [ iv "i" ] (fc 2.) in
  Alcotest.(check bool) "indirection is conservative" true (dep p s1 s2 = Distribute.Both)

(* ---- distribution ---- *)

let count_loops stmts =
  let rec go acc = function
    | Ir.Sfor { body; _ } -> List.fold_left go (acc + 1) body
    | Ir.Sif (_, a, b) -> List.fold_left go (List.fold_left go acc a) b
    | _ -> acc
  in
  List.fold_left go 0 stmts

let test_distribute_splits () =
  let p =
    prog
      ~arrays:[ farr "x" [ 8 ]; farr0 "y" [ 8 ]; farr0 "z" [ 8 ] ]
      [
        for_ "i" (ic 0) (ic 8)
          [
            st "y" [ iv "i" ] (fmul (ld "x" [ iv "i" ]) (fc 2.));
            st "z" [ iv "i" ] (fadd (ld "y" [ iv "i" ]) (fc 1.));
          ];
      ]
  in
  let d = Distribute.distribute_program p in
  Alcotest.(check int) "split into two loops" 2 (count_loops d.Ir.main);
  (* order must put the producer first *)
  (match d.Ir.main with
  | Ir.Sfor { body = [ Ir.Sfstore ("y", _, _) ]; _ } :: _ -> ()
  | _ -> Alcotest.fail "producer loop must come first");
  (* and results are identical *)
  let r1 = run_ir p in
  let r2 = run_ir d in
  Alcotest.(check bool) "same results" true (arrays_equal p r1 r2)

let test_distribute_keeps_recurrence () =
  let p =
    prog
      ~arrays:[ farr "x" [ 8 ]; farr0 "y" [ 8 ] ]
      [
        for_ "i" (ic 1) (ic 8)
          [
            st "y" [ iv "i" ] (fadd (ld "y" [ iv "i" -! ic 1 ]) (ld "x" [ iv "i" ]));
            st "x" [ iv "i" ] (fmul (ld "y" [ iv "i" ]) (fc 0.5));
          ];
      ]
  in
  let d = Distribute.distribute_program p in
  (* y depends on x of the same iteration and x on y: check legality is
     preserved by re-running *)
  let r1 = run_ir p in
  let r2 = run_ir d in
  Alcotest.(check bool) "distributed result matches" true (arrays_equal p r1 r2)

let test_distribute_workload_semantics () =
  (* the paper's Section 4 experiment depends on this: distributed kernels
     must be observationally identical in memory *)
  List.iter
    (fun name ->
      let w = Riq_workloads.Workloads.find name in
      let p1 = Riq_workloads.Workloads.program w in
      let p2 = Riq_workloads.Workloads.optimized w in
      let run p =
        let m = Machine.create p in
        match Machine.run ~limit:50_000_000 m with
        | Machine.Halted -> (p, m)
        | _ -> Alcotest.failf "%s did not halt" name
      in
      let a = run p1 and b = run p2 in
      Alcotest.(check bool)
        (name ^ " array contents identical")
        true
        (arrays_equal w.Riq_workloads.Workloads.ir a b))
    [ "vpenta"; "tomcat"; "adi" ]

let suites =
  [
    ( "loopir",
      [
        Alcotest.test_case "validate accepts" `Quick test_validate_ok;
        Alcotest.test_case "validate rejects" `Quick test_validate_errors;
        Alcotest.test_case "codegen saxpy" `Quick test_codegen_saxpy;
        Alcotest.test_case "codegen 2d row-major" `Quick test_codegen_2d_rowmajor;
        Alcotest.test_case "codegen zero-trip loop" `Quick test_codegen_zero_trip;
        Alcotest.test_case "codegen if/else" `Quick test_codegen_if_else;
        Alcotest.test_case "codegen procedures" `Quick test_codegen_procedures;
        Alcotest.test_case "codegen scalar spill" `Quick test_codegen_scalar_spill;
        Alcotest.test_case "codegen int arrays" `Quick test_codegen_int_array;
        Alcotest.test_case "dep: independent" `Quick test_dep_independent;
        Alcotest.test_case "dep: forward flow" `Quick test_dep_forward_flow;
        Alcotest.test_case "dep: carried forward" `Quick test_dep_forward_carried;
        Alcotest.test_case "dep: backward anti" `Quick test_dep_backward_anti;
        Alcotest.test_case "dep: scalar merge" `Quick test_dep_scalar_merge;
        Alcotest.test_case "dep: disjoint constants" `Quick test_dep_disjoint_constants;
        Alcotest.test_case "dep: indirection conservative" `Quick
          test_dep_complex_conservative;
        Alcotest.test_case "distribute splits producer/consumer" `Quick
          test_distribute_splits;
        Alcotest.test_case "distribute preserves recurrences" `Quick
          test_distribute_keeps_recurrence;
        Alcotest.test_case "distributed workloads semantics" `Slow
          test_distribute_workload_semantics;
      ] );
  ]

(* ---- unrolling ---- *)

let test_unroll_exact_division () =
  let p =
    prog
      ~arrays:[ farr "x" [ 16 ]; farr0 "y" [ 16 ] ]
      [
        for_ "i" (ic 0) (ic 16)
          [ st "y" [ iv "i" ] (fmul (ld "x" [ iv "i" ]) (fc 3.)) ];
      ]
  in
  let u = Unroll.unroll_program ~factor:4 p in
  (* one main loop, no remainder *)
  Alcotest.(check int) "single loop" 1 (List.length u.Ir.main);
  let r1 = run_ir p and r2 = run_ir u in
  Alcotest.(check bool) "same arrays" true (arrays_equal p r1 r2)

let test_unroll_remainder () =
  let p =
    prog
      ~arrays:[ farr "x" [ 16 ]; farr0 "y" [ 16 ] ]
      [
        for_ "i" (ic 1) (ic 14)
          [ st "y" [ iv "i" ] (fadd (ld "x" [ iv "i" ]) (fc 1.)) ];
      ]
  in
  let u = Unroll.unroll_program ~factor:4 p in
  Alcotest.(check int) "main + remainder" 2 (List.length u.Ir.main);
  let r1 = run_ir p and r2 = run_ir u in
  Alcotest.(check bool) "same arrays" true (arrays_equal p r1 r2)

let test_unroll_small_trip_unchanged () =
  let body = [ st "y" [ iv "i" ] (fc 1.) ] in
  let loop = for_ "i" (ic 0) (ic 3) body in
  match Unroll.unroll_stmt ~factor:4 loop with
  | [ Ir.Sfor { lo = Ir.Iconst 0; hi = Ir.Iconst 3; _ } ] -> ()
  | _ -> Alcotest.fail "small loop must be unchanged"

let test_unroll_dynamic_bound_unchanged () =
  let loop = for_ "i" (ic 0) (iv "n") [ st "y" [ iv "i" ] (fc 1.) ] in
  match Unroll.unroll_stmt ~factor:2 loop with
  | [ Ir.Sfor { hi = Ir.Ivar "n"; _ } ] -> ()
  | _ -> Alcotest.fail "dynamic bound must be unchanged"

let test_unroll_recurrence_semantics () =
  (* a loop-carried recurrence must survive unrolling *)
  let p =
    prog
      ~arrays:[ farr "x" [ 32 ]; farr0 "y" [ 32 ] ]
      [
        for_ "i" (ic 1) (ic 30)
          [
            st "y" [ iv "i" ]
              (fadd (ld "y" [ iv "i" -! ic 1 ]) (ld "x" [ iv "i" ]));
          ];
      ]
  in
  let u = Unroll.unroll_program ~factor:3 p in
  let r1 = run_ir p and r2 = run_ir u in
  Alcotest.(check bool) "recurrence preserved" true (arrays_equal p r1 r2)

let test_unroll_nested () =
  let p =
    prog
      ~arrays:[ farr0 "a" [ 8; 8 ] ]
      [
        for_ "i" (ic 0) (ic 8)
          [
            for_ "j" (ic 0) (ic 8)
              [ st "a" [ iv "i"; iv "j" ] (Ir.Fofint (Ir.Iadd (iv "i", iv "j"))) ];
          ];
      ]
  in
  let u = Unroll.unroll_program ~factor:2 p in
  let r1 = run_ir p and r2 = run_ir u in
  Alcotest.(check bool) "nested unroll" true (arrays_equal p r1 r2)

let test_substitute_index () =
  let s = st "y" [ iv "i" ] (ld "x" [ iv "i" +! ic 1 ]) in
  match Unroll.substitute_index "i" (ic 7) s with
  | Ir.Sfstore ("y", [ Ir.Iconst 7 ], Ir.Fload ("x", [ Ir.Iadd (Ir.Iconst 7, Ir.Iconst 1) ])) ->
      ()
  | _ -> Alcotest.fail "substitution wrong"

let test_unroll_workload_semantics () =
  List.iter
    (fun name ->
      let w = Riq_workloads.Workloads.find name in
      let u = Unroll.unroll_program ~factor:2 w.Riq_workloads.Workloads.ir in
      let r1 = run_ir w.Riq_workloads.Workloads.ir and r2 = run_ir u in
      Alcotest.(check bool) (name ^ " unrolled arrays equal") true
        (arrays_equal w.Riq_workloads.Workloads.ir r1 r2))
    [ "wss"; "tsf" ]

let unroll_suites =
  [
    ( "unroll",
      [
        Alcotest.test_case "exact division" `Quick test_unroll_exact_division;
        Alcotest.test_case "remainder loop" `Quick test_unroll_remainder;
        Alcotest.test_case "small trip unchanged" `Quick test_unroll_small_trip_unchanged;
        Alcotest.test_case "dynamic bound unchanged" `Quick test_unroll_dynamic_bound_unchanged;
        Alcotest.test_case "recurrence preserved" `Quick test_unroll_recurrence_semantics;
        Alcotest.test_case "nested loops" `Quick test_unroll_nested;
        Alcotest.test_case "index substitution" `Quick test_substitute_index;
        Alcotest.test_case "workload semantics" `Slow test_unroll_workload_semantics;
      ] );
  ]

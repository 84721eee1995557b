open Riq_isa
open Riq_fuzz

(* The fixed-seed corpus replayed on every `dune runtest` (and by the CI
   corpus job through `riq-fuzz run`): [corpus_size] programs derived from
   base seed 42, each pushed through the full oracle — reference
   interpreter vs out-of-order core with reuse off and on — plus the
   static-verdict and accounting cross-checks. *)
let base_seed = 42
let corpus_size = 50

let corpus =
  lazy
    (List.init corpus_size (fun i ->
         Gen.program ~seed:(Gen.derive_seed base_seed i) ()))

let assemble_exn prog =
  match Prog.to_program prog with
  | Ok p -> p
  | Error msg ->
      Alcotest.failf "corpus program (seed %d) does not assemble: %s"
        prog.Prog.seed msg

let default_cfg = fst (Result.get_ok (Driver.config "default"))
let small_cfg, small_params = Result.get_ok (Driver.config "small-iq")

let zero =
  {
    Oracle.committed = 0;
    detections = 0;
    nblt_filtered = 0;
    attempts = 0;
    revokes = 0;
    nblt_registered = 0;
    promotions = 0;
    exits = 0;
    reuse_committed = 0;
    static_loops = 0;
    hard_rejected = 0;
  }

let add (a : Oracle.summary) (b : Oracle.summary) =
  {
    Oracle.committed = a.Oracle.committed + b.Oracle.committed;
    detections = a.detections + b.detections;
    nblt_filtered = a.nblt_filtered + b.nblt_filtered;
    attempts = a.attempts + b.attempts;
    revokes = a.revokes + b.revokes;
    nblt_registered = a.nblt_registered + b.nblt_registered;
    promotions = a.promotions + b.promotions;
    exits = a.exits + b.exits;
    reuse_committed = a.reuse_committed + b.reuse_committed;
    static_loops = a.static_loops + b.static_loops;
    hard_rejected = a.hard_rejected + b.hard_rejected;
  }

let check_corpus ~cfg progs =
  List.fold_left
    (fun acc prog ->
      match Oracle.check ~cfg (assemble_exn prog) with
      | Ok s -> add acc s
      | Error f ->
          Alcotest.failf "corpus program (seed %d) fails the oracle: %s"
            prog.Prog.seed (Oracle.failure_to_string f))
    zero progs

let test_corpus_four_way () =
  let agg = check_corpus ~cfg:default_cfg (Lazy.force corpus) in
  (* Every transition of the paper's Figure 2 state machine — detection,
     NBLT filter, buffering attempt, revoke, NBLT registration, promotion,
     reuse exit — must be exercised by at least one corpus program. *)
  let nonzero name n =
    Alcotest.(check bool) (name ^ " exercised (" ^ string_of_int n ^ ")") true (n > 0)
  in
  nonzero "detections" agg.Oracle.detections;
  nonzero "nblt filtered" agg.Oracle.nblt_filtered;
  nonzero "buffer attempts" agg.Oracle.attempts;
  nonzero "revokes" agg.Oracle.revokes;
  nonzero "nblt registered" agg.Oracle.nblt_registered;
  nonzero "promotions" agg.Oracle.promotions;
  nonzero "reuse exits" agg.Oracle.exits;
  nonzero "reused commits" agg.Oracle.reuse_committed;
  nonzero "static loops seen" agg.Oracle.static_loops;
  nonzero "hard-rejected loops" agg.Oracle.hard_rejected

let test_corpus_small_iq () =
  (* A slice of the corpus on the 16-entry queue: different straddle
     boundary, same oracle. *)
  let progs =
    List.init 8 (fun i ->
        Gen.program ~params:small_params ~seed:(Gen.derive_seed 1007 i) ())
  in
  let agg = check_corpus ~cfg:small_cfg progs in
  Alcotest.(check bool) "promotions on the small queue" true
    (agg.Oracle.promotions > 0)

(* Satellite: every instruction the generator emits survives an
   encode/decode round trip (the fuzzer feeds programs through [Encode] in
   the job fingerprint, so this is load-bearing for caching too). *)
let test_corpus_encode_roundtrip () =
  List.iter
    (fun prog ->
      let p = assemble_exn prog in
      Array.iter
        (fun insn ->
          let word = Encode.encode insn in
          match Encode.decode word with
          | Ok insn' ->
              if not (Insn.equal insn insn') then
                Alcotest.failf "round trip changed %s into %s (word %08x)"
                  (Insn.to_string insn) (Insn.to_string insn') word
          | Error msg ->
              Alcotest.failf "cannot decode %08x (%s): %s" word
                (Insn.to_string insn) msg)
        p.Riq_asm.Program.code)
    (Lazy.force corpus)

let test_generator_deterministic () =
  let a = Gen.program ~seed:12345 () and b = Gen.program ~seed:12345 () in
  Alcotest.(check string) "same seed renders identically" (Prog.render a)
    (Prog.render b);
  let c = Gen.program ~seed:12346 () in
  Alcotest.(check bool) "adjacent seed differs" true (Prog.render a <> Prog.render c)

let test_derive_seed_spreads () =
  let s0 = Gen.derive_seed 42 0 and s1 = Gen.derive_seed 42 1 in
  Alcotest.(check bool) "indices decorrelate" true (s0 <> s1);
  Alcotest.(check bool) "bases decorrelate" true (Gen.derive_seed 43 0 <> s0);
  Alcotest.(check bool) "non-negative" true (s0 >= 0 && s1 >= 0);
  Alcotest.(check int) "stable mixing" s0 (Gen.derive_seed 42 0)

let test_driver_deterministic () =
  let run () =
    match Driver.run ~config:"default" ~seed:7 ~count:5 () with
    | Ok r -> Driver.summary_to_string r
    | Error msg -> Alcotest.failf "driver: %s" msg
  in
  Alcotest.(check string) "byte-identical summaries" (run ()) (run ())

let test_driver_rejects_unknown_config () =
  match Driver.run ~config:"bogus" ~seed:1 ~count:1 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown config accepted"

(* ---- mutation test: the oracle catches an injected reuse bug ---- *)

(* A runner with a deliberate fault in the reuse path: whenever the
   reuse-on simulation actually committed instructions out of the queue,
   corrupt one architectural register — modelling a reuse engine that
   replays an instruction with a stale operand. The reuse-off leg is
   untouched, so only the feature under test diverges. *)
let faulty_runner : Oracle.runner =
 fun job ->
  Result.map
    (fun (r : Riq_exp.Runner.run) ->
      if r.stats.Riq_core.Processor.reuse_committed > 0 then begin
        let int_regs = Array.copy r.arch.Riq_interp.Machine.int_regs in
        int_regs.(8) <- int_regs.(8) + 1;
        { r with arch = { r.arch with int_regs } }
      end
      else r)
    (Oracle.default_runner job)

let fails_with_fault prog =
  match Prog.to_program prog with
  | Error _ -> false
  | Ok program ->
      Result.is_error (Oracle.check ~runner:faulty_runner ~cfg:default_cfg program)

let test_mutation_caught_and_shrunk () =
  (* Find a corpus program that reuses (and therefore trips the fault)... *)
  let victim =
    match List.find_opt fails_with_fault (Lazy.force corpus) with
    | Some p -> p
    | None -> Alcotest.fail "no corpus program exercises the injected bug"
  in
  (match Oracle.check ~runner:faulty_runner ~cfg:default_cfg (assemble_exn victim) with
  | Error { Oracle.error = Riq_exp.Outcome.Arch_state_mismatch _; _ } -> ()
  | Error f ->
      Alcotest.failf "expected an architectural mismatch, got: %s"
        (Oracle.failure_to_string f)
  | Ok _ -> Alcotest.fail "oracle missed the injected bug");
  (* ...and shrink it to a small standalone repro that still fails. *)
  let repro = Shrink.minimize ~still_fails:fails_with_fault victim in
  Alcotest.(check bool) "shrunk repro still fails" true (fails_with_fault repro);
  let n = Prog.size_insns repro in
  Alcotest.(check bool)
    (Printf.sprintf "repro is small (%d insns)" n)
    true
    (n > 0 && n <= 20)

(* ---- regression seeds ---- *)

(* Generated programs that once failed the oracle with reuse at IQ 64.
   3476801604450188894 and 4046031877806986103 committed one instruction
   more than the interpreter: a loop tail flagged by a buffering attempt
   that was revoked in the same decode group entered the next buffer and
   was executed twice. 2241039784650454715 crashed a since-removed loop
   fast-forward. *)
let test_regression_seeds () =
  let cfg = Riq_ooo.Config.with_iq_size Riq_ooo.Config.reuse 64 in
  List.iter
    (fun seed ->
      match Oracle.check ~cfg (assemble_exn (Gen.program ~seed ())) with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "seed %d: %s" seed (Oracle.failure_to_string f))
    [ 3476801604450188894; 4046031877806986103; 2241039784650454715 ]

let test_shrink_removes_irrelevant_items () =
  (* A hand-built program where only the loop matters: the shrinker must
     drop the glue and the unused procedure call. *)
  let loop = Prog.Loop { trip = 30; body = [ Prog.Op "addi r8, r8, 3" ] } in
  let prog =
    {
      Prog.seed = 0;
      main = [ Prog.Op "addi r9, r9, 1"; loop; Prog.Op "addi r10, r10, 2" ];
      procs = [];
      data_i = [||];
      data_f = [||];
    }
  in
  (* "Fails" whenever the loop survives with enough trips to promote. *)
  let still_fails p =
    let rec has_loop items =
      List.exists
        (function
          | Prog.Loop l -> l.Prog.trip >= 20 || has_loop l.Prog.body
          | Prog.Guard g -> has_loop g.Prog.g_body
          | _ -> false)
        items
    in
    has_loop p.Prog.main
  in
  let shrunk = Shrink.minimize ~still_fails prog in
  Alcotest.(check bool) "loop kept" true (still_fails shrunk);
  Alcotest.(check int) "glue removed" 1 (List.length shrunk.Prog.main)

let suites =
  [
    ( "fuzz",
      [
        Alcotest.test_case "corpus four-way differential" `Quick test_corpus_four_way;
        Alcotest.test_case "corpus on small iq" `Quick test_corpus_small_iq;
        Alcotest.test_case "corpus encode round-trip" `Quick test_corpus_encode_roundtrip;
        Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "derive_seed spreads" `Quick test_derive_seed_spreads;
        Alcotest.test_case "driver deterministic" `Quick test_driver_deterministic;
        Alcotest.test_case "driver rejects unknown config" `Quick
          test_driver_rejects_unknown_config;
        Alcotest.test_case "injected bug caught and shrunk" `Quick
          test_mutation_caught_and_shrunk;
        Alcotest.test_case "known-bad seeds pass at reuse IQ 64" `Quick
          test_regression_seeds;
        Alcotest.test_case "shrinker drops irrelevant items" `Quick
          test_shrink_removes_irrelevant_items;
      ] );
  ]

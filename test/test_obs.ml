open Riq_util
open Riq_obs
open Riq_ooo
open Riq_core
open Riq_workloads

(* ---- Tracer sinks ---- *)

let test_null_sink () =
  let tr = Tracer.null () in
  Alcotest.(check bool) "disabled" false (Tracer.enabled tr);
  (* Emissions are accepted but discarded; guarded call sites skip them
     entirely, but even unguarded ones must be harmless. *)
  Tracer.begin_span tr ~now:0 ~cat:"x" "span";
  Tracer.instant tr ~now:1 ~cat:"x" "point";
  Alcotest.(check int) "nothing recorded" 0 (Tracer.recorded tr);
  Alcotest.(check int) "nothing retained" 0 (List.length (Tracer.events tr));
  Tracer.close tr

let test_ring_sink () =
  let tr = Tracer.ring ~capacity:4 () in
  Alcotest.(check bool) "enabled" true (Tracer.enabled tr);
  Tracer.begin_span tr ~now:10 ~args:[ ("head", Tracer.Int 1) ] ~cat:"reuse" "loop-buffering";
  Tracer.instant tr ~now:12 ~cat:"pipeline" "pipeline-flush";
  Tracer.end_span tr ~now:20 ~cat:"reuse" "loop-buffering";
  Alcotest.(check int) "recorded" 3 (Tracer.recorded tr);
  let ev = Tracer.events tr in
  Alcotest.(check int) "retained" 3 (List.length ev);
  let first = List.hd ev in
  Alcotest.(check bool) "oldest first" true (first.Tracer.ts = 10 && first.Tracer.ph = Tracer.Begin);
  Alcotest.(check (list (pair string int))) "counts sorted by name"
    [ ("loop-buffering", 2); ("pipeline-flush", 1) ]
    (Tracer.counts tr);
  (* Overflow: the oldest events are overwritten and counted as dropped. *)
  for i = 1 to 4 do
    Tracer.instant tr ~now:(100 + i) ~cat:"x" "tick"
  done;
  Alcotest.(check int) "recorded keeps counting" 7 (Tracer.recorded tr);
  Alcotest.(check int) "capacity bound" 4 (List.length (Tracer.events tr));
  Alcotest.(check int) "dropped" 3 (Tracer.dropped tr);
  Alcotest.(check bool) "survivors are the newest" true
    (List.for_all (fun e -> e.Tracer.ts >= 20) (Tracer.events tr))

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_stream_sink () =
  let path = Filename.temp_file "riq_trace" ".json" in
  let oc = open_out path in
  let tr = Tracer.stream ~process_name:"riq-test" oc in
  Tracer.set_thread_name tr ~tid:0 "reuse-engine";
  Tracer.begin_span tr ~now:5 ~args:[ ("head", Tracer.Int 64) ] ~cat:"reuse" "loop-buffering";
  Tracer.end_span tr ~now:9 ~cat:"reuse" "loop-buffering";
  Tracer.counter tr ~now:10 ~name:"ipc" [ ("ipc", 2.5) ];
  Tracer.close tr;
  Tracer.close tr (* idempotent *);
  close_out oc;
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "array brackets" true
    (s.[0] = '[' && contains s "]" && String.length s > 2);
  Alcotest.(check bool) "process metadata" true
    (contains s "\"process_name\"" && contains s "riq-test");
  Alcotest.(check bool) "thread metadata" true (contains s "reuse-engine");
  Alcotest.(check bool) "span begin" true (contains s "\"ph\":\"B\"");
  Alcotest.(check bool) "span end" true (contains s "\"ph\":\"E\"");
  Alcotest.(check bool) "counter" true (contains s "\"ph\":\"C\"");
  Alcotest.(check bool) "args" true (contains s "\"head\":64");
  (* 3 payload events plus the thread-name metadata record. *)
  Alcotest.(check int) "recorded" 4 (Tracer.recorded tr)

let test_event_json_shape () =
  let instant_json =
    Json.to_string
      (Tracer.event_json
         { Tracer.ts = 7; ph = Tracer.Instant; name = "revoke"; cat = "reuse"; pid = 1;
           tid = 1; dur = 0; args = [ ("pc", Tracer.Int 4096) ] })
  in
  Alcotest.(check bool) "instant has scope" true (contains instant_json "\"s\":\"t\"");
  Alcotest.(check bool) "microsecond ts" true (contains instant_json "\"ts\":7");
  Alcotest.(check bool) "pid" true (contains instant_json "\"pid\":1")

(* ---- Sampler ---- *)

let test_sampler_stride_and_record () =
  let s = Sampler.create ~stride:4 ~channels:[ "a"; "b" ] () in
  Alcotest.(check bool) "due on stride" true (Sampler.due s ~cycle:8);
  Alcotest.(check bool) "not due off stride" false (Sampler.due s ~cycle:9);
  Sampler.record s ~cycle:4 [| 1.; 10. |];
  Sampler.record s ~cycle:8 [| 2.; 20. |];
  Alcotest.(check int) "length" 2 (Sampler.length s);
  (match Sampler.samples s with
  | [ (4, a); (8, b) ] ->
      Alcotest.(check (float 0.)) "first" 1. a.(0);
      Alcotest.(check (float 0.)) "second" 20. b.(1)
  | _ -> Alcotest.fail "unexpected samples");
  Alcotest.check_raises "arity" (Invalid_argument "Sampler.record: value count does not match channels")
    (fun () -> Sampler.record s ~cycle:12 [| 1. |])

let test_sampler_decimation () =
  let s = Sampler.create ~stride:1 ~max_samples:8 ~channels:[ "v" ] () in
  for c = 1 to 100 do
    if Sampler.due s ~cycle:c then Sampler.record s ~cycle:c [| float_of_int c |]
  done;
  Alcotest.(check bool) "bounded" true (Sampler.length s <= 8);
  Alcotest.(check bool) "decimated" true (Sampler.decimations s > 0);
  Alcotest.(check int) "stride doubled" (1 lsl Sampler.decimations s) (Sampler.stride s);
  let cycles = List.map fst (Sampler.samples s) in
  Alcotest.(check bool) "still spans the run" true (List.nth cycles (List.length cycles - 1) > 50);
  (* Decimation preserves order and coarsens, never densifies. *)
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun g -> Alcotest.(check bool) "gap within effective stride" true (g > 0 && g <= 2 * Sampler.stride s))
    (gaps cycles)

let test_sampler_exports () =
  let s = Sampler.create ~stride:2 ~channels:[ "ipc"; "iq" ] () in
  Sampler.record s ~cycle:2 [| 1.5; 3. |];
  Sampler.record s ~cycle:4 [| 2.5; 5. |];
  let csv = Sampler.to_csv s in
  Alcotest.(check bool) "csv header" true (contains csv "cycle,ipc,iq");
  Alcotest.(check bool) "csv row" true (contains csv "\n2,");
  let js = Json.to_string (Sampler.to_json s) in
  Alcotest.(check bool) "schema" true (contains js "riq-sampler/1");
  Alcotest.(check bool) "channels" true (contains js "\"ipc\"");
  let summary = Json.to_string (Sampler.summary s) in
  Alcotest.(check bool) "summary p50" true (contains summary "p50")

(* ---- Processor integration ---- *)

let reuse_cfg = Config.with_iq_size Config.reuse 64

(* Tracing must not perturb the simulation, and the detector's instants
   must agree with the decision log. [tsf] captures its loops; [btrix] at
   IQ 32 also meets loops too large for the queue. *)
let check_traced_run ~bench ~iq ~too_large =
  let cfg = Config.with_iq_size Config.reuse iq in
  let program = Workloads.program (Workloads.find bench) in
  let plain = Processor.create cfg program in
  (match Processor.run plain with
  | Processor.Halted -> ()
  | Processor.Cycle_limit -> Alcotest.fail "plain run hit cycle limit");
  let tracer = Tracer.ring ~capacity:(1 lsl 17) () in
  let sampler = Sampler.create ~channels:Processor.sample_channels () in
  let traced = Processor.create ~tracer ~sampler cfg program in
  (match Processor.run traced with
  | Processor.Halted -> ()
  | Processor.Cycle_limit -> Alcotest.fail "traced run hit cycle limit");
  let check what = Alcotest.(check bool) (bench ^ ": " ^ what) true in
  check "stats bit-identical" (Processor.stats plain = Processor.stats traced);
  check "loop decisions identical"
    (Processor.loop_decisions plain = Processor.loop_decisions traced);
  let counts = Tracer.counts tracer in
  let count name = try List.assoc name counts with Not_found -> 0 in
  let detections =
    List.fold_left
      (fun n d -> n + d.Processor.ld_detections)
      0
      (Processor.loop_decisions traced)
  in
  Alcotest.(check int) (bench ^ ": loop-detected instants = detections") detections
    (count "loop-detected");
  if too_large then check "loop-too-large instants" (count "loop-too-large" > 0);
  check "loop-buffering spans" (count "loop-buffering" > 0);
  check "code-reuse spans" (count "code-reuse" > 0);
  check "counter tracks" (count "power" > 0 && count "ipc" > 0);
  check "halt instant" (count "halted" = 1);
  check "sampler ran" (Sampler.length sampler > 0);
  (* Spans balance: every begin has its end. *)
  let balance = ref 0 in
  List.iter
    (fun e ->
      match e.Tracer.ph with
      | Tracer.Begin -> incr balance
      | Tracer.End -> decr balance
      | _ -> ())
    (Tracer.events tracer);
  Alcotest.(check int) (bench ^ ": spans balanced") 0 !balance

let test_traced_run_matches_untraced () =
  check_traced_run ~bench:"tsf" ~iq:64 ~too_large:false;
  check_traced_run ~bench:"btrix" ~iq:32 ~too_large:true

let test_sampler_channel_validation () =
  let program = Workloads.program (Workloads.find "tsf") in
  Alcotest.(check bool) "bad channels rejected" true
    (try
       ignore
         (Processor.create
            ~sampler:(Sampler.create ~channels:[ "wrong" ] ())
            reuse_cfg program);
       false
     with Invalid_argument _ -> true)

(* Satellite: every kernel drains its queues at the halt and never reports
   more gated cycles than cycles. *)
let test_all_kernels_drain () =
  List.iter
    (fun w ->
      let p = Processor.create reuse_cfg (Workloads.program w) in
      (match Processor.run p with
      | Processor.Halted -> ()
      | Processor.Cycle_limit -> Alcotest.fail (w.Workloads.name ^ ": cycle limit"));
      let iq, rob, lsq = Processor.occupancy p in
      Alcotest.(check (triple int int int)) (w.Workloads.name ^ " drained") (0, 0, 0)
        (iq, rob, lsq);
      Alcotest.(check bool)
        (w.Workloads.name ^ " gated <= cycles")
        true
        (Processor.gated_cycles p <= Processor.cycles p))
    (Workloads.all @ Workloads.extras)

let test_mxm_is_extra () =
  let w = Workloads.find "mxm" in
  Alcotest.(check string) "findable" "mxm" w.Workloads.name;
  Alcotest.(check bool) "not in the Table 2 sweep" true
    (not (List.exists (fun w' -> w'.Workloads.name = "mxm") Workloads.all))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "null sink" `Quick test_null_sink;
        Alcotest.test_case "ring sink" `Quick test_ring_sink;
        Alcotest.test_case "stream sink" `Quick test_stream_sink;
        Alcotest.test_case "event json shape" `Quick test_event_json_shape;
        Alcotest.test_case "sampler stride/record" `Quick test_sampler_stride_and_record;
        Alcotest.test_case "sampler decimation" `Quick test_sampler_decimation;
        Alcotest.test_case "sampler exports" `Quick test_sampler_exports;
        Alcotest.test_case "traced run matches untraced" `Quick test_traced_run_matches_untraced;
        Alcotest.test_case "sampler channel validation" `Quick test_sampler_channel_validation;
        Alcotest.test_case "all kernels drain at halt" `Slow test_all_kernels_drain;
        Alcotest.test_case "mxm stays out of the sweep" `Quick test_mxm_is_extra;
      ] );
  ]

open Riq_util
open Riq_obs

(* ---- Registration and instrument basics ---- *)

let test_registration () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"h" "jobs_total" in
  Metrics.inc c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  (* Re-registering (name, labels) yields the same cell. *)
  let c' = Metrics.counter m "jobs_total" in
  Metrics.inc c';
  Alcotest.(check int) "same cell" 6 (Metrics.counter_value c);
  Alcotest.check_raises "monotonic"
    (Invalid_argument "Metrics.add: counters are monotonic") (fun () ->
      Metrics.add c (-1));
  let g = Metrics.gauge m "depth" in
  Metrics.set g 3.5;
  Alcotest.(check (float 0.)) "gauge" 3.5 (Metrics.gauge_value g);
  (* One name, one kind; names are validated. *)
  Alcotest.(check bool) "kind clash rejected" true
    (try
       ignore (Metrics.gauge m "jobs_total");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad name rejected" true
    (try
       ignore (Metrics.counter m "1bad");
       false
     with Invalid_argument _ -> true)

(* ---- Histogram bucket edges ---- *)

let test_bucket_edges () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 0.001; 0.01; 0.1 |] "lat_seconds" in
  (* Upper bounds are inclusive: a value exactly on an edge belongs to
     that edge's bucket; past the last bound is the overflow bucket. *)
  Metrics.observe h 0.001;
  Metrics.observe h 0.002;
  Metrics.observe h 0.01;
  Metrics.observe h 0.1;
  Metrics.observe h 0.2;
  Metrics.observe h 0.;
  Alcotest.(check int) "count" 6 (Metrics.histogram_count h);
  match Metrics.snapshot m with
  | [ { Metrics.s_value = Metrics.Histogram_sample { bounds; counts; sum }; _ } ] ->
      Alcotest.(check (array (float 0.))) "bounds" [| 0.001; 0.01; 0.1 |] bounds;
      Alcotest.(check (array int)) "per-bucket counts" [| 2; 2; 1; 1 |] counts;
      Alcotest.(check (float 1e-9)) "sum" 0.313 sum
  | _ -> Alcotest.fail "unexpected snapshot shape"

let test_log_buckets () =
  Alcotest.(check (array (float 1e-12)))
    "geometric" [| 0.5; 1.; 2. |]
    (Metrics.log_buckets ~start:0.5 ~factor:2. 3);
  let d = Metrics.log_buckets 30 in
  Alcotest.(check int) "default width" 30 (Array.length d);
  Alcotest.(check (float 1e-18)) "default start" 1e-6 d.(0);
  let ascending = ref true in
  Array.iteri (fun i b -> if i > 0 && b <= d.(i - 1) then ascending := false) d;
  Alcotest.(check bool) "strictly ascending" true !ascending;
  Alcotest.(check bool) "spans minutes" true (d.(29) > 300.)

(* ---- The riq-metrics/1 document ---- *)

let sample_registry () =
  let m = Metrics.create () in
  let h =
    Metrics.histogram m ~help:"Request latency" ~buckets:[| 0.001; 0.01; 0.1 |]
      "latency_seconds"
  in
  List.iter (Metrics.observe h) [ 0.001; 0.005; 0.05; 0.5 ];
  Metrics.set (Metrics.gauge m ~help:"Jobs queued" "queue_depth") 4.;
  Metrics.add
    (Metrics.counter m ~help:"Requests served" ~labels:[ ("op", "submit") ]
       "requests_total")
    3;
  Metrics.inc
    (Metrics.counter m ~help:"Requests served" ~labels:[ ("op", "poll") ]
       "requests_total");
  m

(* The wire format: registry -> JSON text -> snapshot must be the
   identity, since the metrics op ships exactly this document. *)
let round_trip snap =
  let text = Json.to_string (Metrics.to_json snap) in
  (text, Result.bind (Json.of_string text) Metrics.snapshot_of_json)

let test_json_round_trip () =
  let snap = Metrics.snapshot (sample_registry ()) in
  match round_trip snap with
  | _, Ok snap' -> Alcotest.(check bool) "round trip" true (snap = snap')
  | _, Error msg -> Alcotest.fail msg

(* A label value holding a quote, a backslash and a newline is escaped
   in the document and comes back unchanged. *)
let test_label_escaping () =
  let m = Metrics.create () in
  Metrics.inc (Metrics.counter m ~labels:[ ("path", "a\"b\\c\nd") ] "files_total");
  let snap = Metrics.snapshot m in
  let text, back = round_trip snap in
  let escaped = {|"labels":{"path":"a\"b\\c\nd"}|} in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped" true (contains text escaped);
  match back with
  | Ok snap' -> Alcotest.(check bool) "round trip" true (snap = snap')
  | Error msg -> Alcotest.fail msg

let test_json_rejects () =
  let reject j =
    match Metrics.snapshot_of_json j with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "wrong schema" true
    (reject (Json.Obj [ ("schema", Json.String "riq-metrics/9") ]));
  Alcotest.(check bool) "not an object" true (reject (Json.List []))

(* ---- Quantile estimation ---- *)

let test_histogram_quantile () =
  let bounds = [| 1.; 2.; 4. |] in
  let counts = [| 2; 2; 0; 0 |] in
  Alcotest.(check (float 1e-9)) "median at bucket edge" 1.
    (Metrics.histogram_quantile 0.5 ~bounds ~counts);
  Alcotest.(check (float 1e-9)) "p75 interpolates" 1.5
    (Metrics.histogram_quantile 0.75 ~bounds ~counts);
  Alcotest.(check (float 1e-9)) "overflow clamps to last bound" 4.
    (Metrics.histogram_quantile 1.0 ~bounds ~counts:[| 0; 0; 0; 5 |]);
  Alcotest.(check (float 0.)) "empty histogram" 0.
    (Metrics.histogram_quantile 0.5 ~bounds ~counts:[| 0; 0; 0; 0 |]);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Metrics.histogram_quantile: q outside [0, 1]") (fun () ->
      ignore (Metrics.histogram_quantile 1.5 ~bounds ~counts))

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "registration" `Quick test_registration;
        Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
        Alcotest.test_case "log buckets" `Quick test_log_buckets;
        Alcotest.test_case "label escaping" `Quick test_label_escaping;
        Alcotest.test_case "json round trip" `Quick test_json_round_trip;
        Alcotest.test_case "json rejects" `Quick test_json_rejects;
        Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
      ] );
  ]

(* Client side of the serve protocol, packaged as an engine backend.

   The engine hands over its cache-missing job indices and their
   fingerprints; the client submits the fingerprints as one ticket,
   supplies the bodies of the jobs the daemon says it needs, and replays
   the outcomes that answer the last of the two through [on_result]. A
   warm daemon therefore costs one small submit, with no job on the wire.
   All the serving leverage lives daemon-side (shared store, cross-client
   batching), so the client stays deliberately dumb: a blocking
   request/response socket with one reconnect-and-retry per request.

   SO_RCVTIMEO bounds each reply by [request_timeout], except that of a
   submit or supply, which may wait for simulations (the daemon's per-job
   budget bounds it). A submit is safe to retry: a resubmitted batch just
   opens a fresh ticket whose jobs are served from the store or coalesced
   onto the still-running execution of the lost one. A supply is not: its
   ticket died with the lost connection, so the batch's jobs come back to
   the engine unreported.

   Observability: with a [trace] sink the client sends its trace id in
   the hello, once per connection, and emits submit/await spans
   (wall-clock us, its own pid). The daemon shares the host and so the
   clock, and {!server_trace} pulls its span ring as recorded, so one
   merged file loads in Perfetto with every process on one timeline. *)

open Riq_util
open Riq_exp
module Metrics = Riq_obs.Metrics
module Tracer = Riq_obs.Tracer
module Log = Riq_obs.Log

type t = {
  address : Protocol.address;
  request_timeout : float;
  tracer : Tracer.t option; (* caller-owned sink for client-side spans *)
  trace_id : string;
  mutable fd : Unix.file_descr option;
  mutable server_workers : int;
  (* The client's books: series of its registry, read back by service_json. *)
  requests : Metrics.counter;
  request_seconds : Metrics.histogram;
  reconnects : Metrics.counter;
  submitted : Metrics.counter;
  hits : Metrics.counter;
  executed : Metrics.counter;
  batched : Metrics.counter;
}

let disconnect t =
  (match t.fd with Some fd -> ( try Unix.close fd with _ -> ()) | None -> ());
  t.fd <- None

let close = disconnect

(* A write to a daemon that went away must fail with EPIPE, which
   [request] retries, not raise SIGPIPE, whose default action kills the
   process. The previous disposition is restored after the write. *)
let send ?payload fd json =
  let old = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe old)
    (fun () -> Wire.send ?payload fd json)

let do_connect t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX (Protocol.address_to_string t.address))
   with
  | Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with _ -> ());
      failwith
        (Printf.sprintf "cannot reach riq-serve at %s: %s"
           (Protocol.address_to_string t.address)
           (Unix.error_message err))
  | e ->
      (try Unix.close fd with _ -> ());
      raise e);
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.request_timeout with _ -> ());
  let trace_id = Option.map (fun _ -> t.trace_id) t.tracer in
  send fd
    (fst
       (Protocol.request_to_wire
          (Protocol.Hello
             { revision = Revision.stamp; format = Revision.format_version; trace_id })));
  let resp, _ = Wire.recv fd in
  if not (Protocol.is_ok resp) then begin
    (try Unix.close fd with _ -> ());
    failwith ("riq-serve rejected the connection: " ^ Protocol.error_of resp)
  end;
  (match Option.bind (Json.member "workers" resp) Json.to_int with
  | Some w -> t.server_workers <- w
  | None -> ());
  Log.debug ~scope:"client"
    ~kv:[ ("address", Protocol.address_to_string t.address) ]
    "connected";
  t.fd <- Some fd

let ensure_connected t =
  match t.fd with
  | Some _ -> ()
  | None -> do_connect t

let rec request ?(retried = false) t req =
  ensure_connected t;
  let fd = Option.get t.fd in
  let t0 = Unix.gettimeofday () in
  let timeout =
    match req with Protocol.Submit _ | Protocol.Supply _ -> 0. | _ -> t.request_timeout
  in
  match
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
    let json, payload = Protocol.request_to_wire req in
    send ?payload fd json;
    Wire.recv fd
  with
  | resp ->
      Metrics.inc t.requests;
      Metrics.observe t.request_seconds (Unix.gettimeofday () -. t0);
      resp
  | exception e ->
      disconnect t;
      if retried || match req with Protocol.Supply _ -> true | _ -> false then raise e
      else begin
        Metrics.inc t.reconnects;
        Log.warn ~scope:"client"
          ~kv:[ ("address", Protocol.address_to_string t.address) ]
          "connection lost, retrying";
        request ~retried:true t req
      end

let connect ?(request_timeout = 120.) ?(metrics = Metrics.create ()) ?trace address =
  let trace_id =
    Printf.sprintf "%d-%06x" (Unix.getpid ())
      (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff)
  in
  let counter ?labels help name = Metrics.counter metrics ~help ?labels name in
  let results source =
    counter ~labels:[ ("source", source) ] "Jobs answered by the daemon, by source"
      "client_results_total"
  in
  let t =
    {
      address;
      request_timeout;
      tracer = trace;
      trace_id;
      fd = None;
      server_workers = 1;
      requests = counter "Wire requests sent to the daemon" "client_requests_total";
      request_seconds =
        Metrics.histogram metrics ~help:"Round-trip seconds per wire request"
          "client_request_seconds";
      reconnects = counter "Reconnect-and-retry cycles" "client_reconnects_total";
      submitted = counter "Jobs submitted to the daemon" "client_submitted_total";
      hits = results "hit";
      executed = results "executed";
      batched = results "batched";
    }
  in
  do_connect t;
  t

let require name conv resp =
  match Option.bind (Json.member name resp) conv with
  | Some v -> v
  | None ->
      raise
        (Wire.Protocol_error (Printf.sprintf "response missing field %S" name))

(* ------------------------------------------------------------------ *)
(* Metrics / trace ops                                                 *)
(* ------------------------------------------------------------------ *)

(* One [metrics] round trip: the reply's riq-metrics/1 document. *)
let scrape t =
  match request t Protocol.Metrics with
  | exception e -> Error (Printexc.to_string e)
  | resp, _ when not (Protocol.is_ok resp) -> Error (Protocol.error_of resp)
  | resp, _ -> (
      match Json.member "metrics" resp with
      | None -> Error "response missing field \"metrics\""
      | Some j -> Ok j)

let server_stats t = Result.to_option (scrape t)
let server_metrics t = Result.bind (scrape t) Metrics.snapshot_of_json

let server_trace ?(since = 0) t =
  match request t (Protocol.Trace { since }) with
  | exception e -> Error (Printexc.to_string e)
  | resp, _ when not (Protocol.is_ok resp) -> Error (Protocol.error_of resp)
  | resp, _ ->
      Ok (require "events" Json.to_list resp, require "next" Json.to_int resp)

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

(* Run [k], then record it as a span from [started] when tracing. *)
let span t ~started name args k =
  let r = k () in
  Option.iter
    (fun tr ->
      Tracer.complete tr
        ~now:(int_of_float (started *. 1e6))
        ~dur:(int_of_float ((Unix.gettimeofday () -. started) *. 1e6))
        ~args ~cat:"client" name)
    t.tracer;
  r

(* Submit the batch's fingerprints, then supply the jobs the daemon
   lacks; returns the reply that carries the outcomes, and its payload. *)
let submit t (jobs : Job.t array) keys indices =
  let submitted = Array.of_list indices in
  let sent = ref 0. in
  let checked what req =
    sent := Unix.gettimeofday ();
    let ((resp, _) as reply) = request t req in
    if not (Protocol.is_ok resp) then
      failwith (Printf.sprintf "riq-serve %s refused: %s" what (Protocol.error_of resp));
    reply
  in
  span t ~started:(Unix.gettimeofday ()) "submit-batch"
    [ ("jobs", Tracer.Int (Array.length submitted)); ("trace_id", Tracer.Str t.trace_id) ]
    (fun () ->
      let keys = List.map (fun i -> keys.(i)) indices in
      let reply =
        match checked "submit" (Protocol.Submit { keys }) with
        | (_, Some _) as held -> held
        | resp, None ->
          let ticket = require "ticket" Json.to_int resp in
          let body j =
            match Json.to_int j with
            | Some k when k >= 0 && k < Array.length submitted -> jobs.(submitted.(k))
            | _ -> raise (Wire.Protocol_error "bad index in need")
          in
          let bodies = Array.of_list (List.map body (require "need" Json.to_list resp)) in
          checked "supply" (Protocol.Supply { ticket; jobs = Protocol.jobs_to_wire bodies })
      in
      (* The held reply's wait: from its request to the outcomes. *)
      span t ~started:!sent "await-results" [ ("trace_id", Tracer.Str t.trace_id) ]
        ignore;
      reply)

(* One engine batch: one exchange, then replay. Returns the worker
   seconds of the jobs executed for it. *)
let run_batch t (jobs : Job.t array) keys indices on_result =
  let resp, payload = submit t jobs keys indices in
  Metrics.add t.submitted (List.length indices);
  let entries name conv =
    List.map
      (fun j ->
        match conv j with
        | Some v -> v
        | None -> raise (Wire.Protocol_error ("bad entry in " ^ name)))
      (require name Json.to_list resp)
  in
  let outcomes =
    match payload with
    | Some p -> Array.to_list (Protocol.outcomes_of_wire p)
    | None -> raise (Wire.Protocol_error "reply carries no outcomes")
  in
  let parse_source s = Result.to_option (Protocol.source_of_string s) in
  let sources = entries "sources" (fun j -> Option.bind (Json.to_str j) parse_source) in
  let seconds = entries "seconds" Json.to_float_opt in
  if List.length outcomes <> List.length indices then
    raise (Wire.Protocol_error "result count mismatch");
  List.iter2
    (fun i (outcome, (source, secs)) ->
      Metrics.inc
        (match source with
        | Protocol.Hit -> t.hits
        | Protocol.Executed -> t.executed
        | Protocol.Batched -> t.batched);
      on_result i ~seconds:secs outcome)
    indices
    (List.combine outcomes (List.combine sources seconds));
  List.fold_left2
    (fun busy source secs -> if source = Protocol.Executed then busy +. secs else busy)
    0. sources seconds

let service_json t =
  let count c = Json.Int (Metrics.counter_value c) in
  let client =
    Json.Obj
      [
        ("address", Json.String (Protocol.address_to_string t.address));
        ("submitted", count t.submitted);
        ("remote_hits", count t.hits);
        ("remote_executed", count t.executed);
        ("remote_batched", count t.batched);
        ("reconnects", count t.reconnects);
      ]
  in
  let server = Option.value (server_stats t) ~default:Json.Null in
  Json.Obj [ ("client", client); ("server", server) ]

let backend t =
  {
    Backend.name = Printf.sprintf "serve:%s" (Protocol.address_to_string t.address);
    parallelism = t.server_workers;
    telemetry = (fun () -> [ ("service", service_json t) ]);
    execute =
      (fun ~timeout:_ ~jobs ~keys ~indices ~on_result ->
        (* The daemon enforces its own per-job budget; a connection-level
           failure or a refusal is logged and surfaces as unreported
           indices, which the engine records as [Worker_crashed]. *)
        let busy_seconds =
          try run_batch t jobs keys indices on_result
          with e ->
            Log.warn ~scope:"client"
              ~kv:
                [
                  ("address", Protocol.address_to_string t.address);
                  ("jobs", Log.int (List.length indices));
                  ("error", Printexc.to_string e);
                ]
              "batch failed";
            disconnect t;
            0.
        in
        { Backend.busy_seconds; retries = 0 });
  }

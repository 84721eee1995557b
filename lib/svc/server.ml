(* The riq-sim serve daemon.

   One single-threaded select loop multiplexes three kinds of file
   descriptor: the listening Unix socket, client connections speaking the
   length-prefixed protocol ({!Wire}/{!Protocol}), and the result pipes of
   the resident forked workers ({!Riq_exp.Workers}, the pool the local
   fork backend runs on too). Nothing in the loop blocks on
   simulation: jobs travel to workers over pipes and come back as
   (seconds, outcome) records, so other connections stay responsive
   while a sweep grinds.

   Scheduling. A submit names jobs by {!Riq_exp.Job.fingerprint} only.
   Each fingerprint is resolved exactly once: first against the shared
   {!Riq_exp.Cache} (read-through hit), then against the in-flight table (a
   second request for a fingerprint that is queued or running is batched
   onto it — one execution fans out to every waiter). What neither
   answers, the reply lists as needed, and the client supplies those
   bodies, all of them in one supply, in that order. A supply is checked
   whole before any of it is used: it must hold one body per needed index,
   and every body must fingerprint to the key submitted at its index, so
   no client can file an outcome under another job's key. Its jobs are then
   resolved again (the store or another client may have caught up since
   the submit) and only then queued for a worker. Jobs answered from the
   store or coalesced are never unmarshalled. There is one queue, first
   in first out: a job waits behind every job queued before it, whichever
   connection queued it.

   Held replies. A ticket belongs to the connection that submitted it.
   The request that leaves it needing no more bodies is answered when it
   completes, with its outcomes; until then that connection is not read,
   so its replies stay in request order. Sending the outcomes, or the
   connection closing, frees the ticket; its queued and running jobs
   still finish and fill the store.

   Replies never block the loop. Client sockets are non-blocking; a
   reply the socket does not take at once waits in its connection's
   unsent bytes, which the loop writes as the socket becomes writable.
   A connection with unsent bytes is not read, so a peer that stops
   reading holds about one reply, not one per request it sent.

   Failure containment is the worker pool's: a worker that dies mid-job
   gets the job retried once on a fresh worker; a worker that exceeds the
   per-job timeout is SIGKILLed and the job is answered [Job_timeout];
   replacements are forked on demand.

   SIGTERM/SIGINT starts a graceful drain: the listening socket closes,
   new submits and supplies are refused, queued and in-flight jobs run to
   completion and held replies go out as their tickets complete, then the
   workers are shut down over their pipes, reaped, and the socket file is
   unlinked. No orphaned processes, and no store lock: the daemon never
   walks, locks or deletes from the store (riq-cache maintains it).

   Client and daemon share the host, so they share a clock: daemon trace
   events are stamped in wall-clock microseconds and merge into a
   client's trace as they are. *)

open Riq_util
open Riq_exp
module Metrics = Riq_obs.Metrics
module Tracer = Riq_obs.Tracer
module Log = Riq_obs.Log

(* A connection whose half-sent frame gets no byte for this long is
   closed: a peer that stopped mid-frame is gone or broken, and its
   buffer would otherwise be held forever. So is one that takes none of
   its unsent reply bytes for this long. *)
let frame_stall_seconds = 5.

(* Trace events are stamped in wall-clock microseconds, the unit Chrome
   traces use natively. *)
let us seconds = int_of_float (seconds *. 1e6)

type config = {
  address : Protocol.address;
  workers : int;
  store : Cache.t;
  timeout : float option; (* per-job wall-clock budget *)
  metrics : Metrics.t;
}

let config ?(workers = 1) ?(timeout = Some 600.) ?metrics ~address store =
  if workers < 1 then invalid_arg "Server.config: workers must be >= 1";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  { address; workers; store; timeout; metrics }

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type waiter = {
  wt_ticket : int;
  wt_index : int;
  wt_source : Protocol.source;
}

type pending = {
  p_job : Job.t;
  p_enqueued : float; (* wall clock when queued, for queue-wait spans *)
  p_trace_id : string option; (* that of the connection that queued it *)
  mutable p_waiters : waiter list; (* reverse submission order *)
}

type conn = {
  c_fd : Unix.file_descr;
  c_reader : Wire.reader;
  mutable c_hello : bool;
  mutable c_trace_id : string option; (* from its hello *)
  mutable c_held : int option; (* the ticket whose outcomes are its held reply *)
  mutable c_out : Bytes.t; (* reply bytes, sent up to [c_sent] *)
  mutable c_sent : int;
  mutable c_progress : float; (* wall clock of the last byte moved or reply queued *)
}

type ticket = {
  t_conn : conn; (* the submitting connection, its only owner *)
  t_total : int;
  t_keys : string array; (* the submitted fingerprints *)
  mutable t_need : int array; (* the indices its supply must carry, in order *)
  t_outcomes : Outcome.t option array;
  t_sources : Protocol.source array;
  t_seconds : float array;
  mutable t_done : int;
}

(* The daemon's own instruments, registered against cfg.metrics, which
   the store counts its reads and writes on too. Request counters are
   registered lazily per op label. *)
type instruments = {
  i_submitted : Metrics.counter;
  i_supplied : Metrics.counter;
  i_executed : Metrics.counter;
  i_batched : Metrics.counter;
  i_retries : Metrics.counter;
  i_timeouts : Metrics.counter;
  i_queue : Metrics.gauge;
  i_inflight : Metrics.gauge;
  i_workers : Metrics.gauge;
  i_connections : Metrics.gauge;
  i_tickets : Metrics.gauge;
  i_uptime : Metrics.gauge;
  i_draining : Metrics.gauge;
  i_wait : Metrics.histogram;
  i_simulate : Metrics.histogram;
}

let instruments_of registry =
  let counter = Metrics.counter registry in
  let gauge = Metrics.gauge registry in
  {
    i_submitted = counter ~help:"Jobs submitted over the wire" "serve_submitted_total";
    i_supplied =
      counter ~help:"Job bodies received in accepted supplies" "serve_supplied_total";
    i_executed = counter ~help:"Jobs executed by resident workers" "serve_executed_total";
    i_batched =
      counter ~help:"Jobs coalesced onto an in-flight identical fingerprint"
        "serve_batched_total";
    i_retries = counter ~help:"Jobs retried after a worker crash" "serve_retries_total";
    i_timeouts = counter ~help:"Jobs killed at the wall-clock budget" "serve_timeouts_total";
    i_queue = gauge ~help:"Queued jobs" "serve_queue_depth";
    i_inflight = gauge ~help:"Jobs currently on a worker" "serve_inflight";
    i_workers = gauge ~help:"Resident worker processes" "serve_workers";
    i_connections = gauge ~help:"Open client connections" "serve_connections";
    i_tickets = gauge ~help:"Tickets not yet answered" "serve_tickets_open";
    i_uptime = gauge ~help:"Daemon uptime in seconds" "serve_uptime_seconds";
    i_draining = gauge ~help:"1 while the daemon drains for shutdown, else 0" "serve_draining";
    i_wait =
      Metrics.histogram registry ~help:"Seconds jobs spent queued before dispatch"
        "serve_queue_wait_seconds";
    i_simulate =
      Metrics.histogram registry ~help:"Wall-clock seconds per worker execution"
        "serve_simulate_seconds";
  }

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  ins : instruments;
  tracer : Tracer.t; (* ring of wall-clock-us service spans *)
  mutable conns : conn list;
  workers : string Workers.t; (* jobs keyed by fingerprint *)
  pending : (string, pending) Hashtbl.t; (* fingerprint -> queued/running *)
  queue : string Queue.t; (* fingerprints, first in first out *)
  tickets : (int, ticket) Hashtbl.t;
  complete : int Queue.t; (* tickets whose held reply can go out *)
  mutable next_ticket : int;
  mutable draining : bool;
  started : float;
}

(* Point-in-time gauges, and the retry/timeout counters the worker pool
   keeps, are brought up to date right before a snapshot leaves the
   daemon (the metrics op) rather than on every change. *)
let snapshot t =
  let catch_up counter n = Metrics.add counter (n - Metrics.counter_value counter) in
  catch_up t.ins.i_retries (Workers.retries t.workers);
  catch_up t.ins.i_timeouts (Workers.timeouts t.workers);
  Metrics.set t.ins.i_queue (float_of_int (Queue.length t.queue));
  Metrics.set t.ins.i_inflight (float_of_int (Workers.busy t.workers));
  Metrics.set t.ins.i_workers (float_of_int (List.length (Workers.pids t.workers)));
  Metrics.set t.ins.i_connections (float_of_int (List.length t.conns));
  Metrics.set t.ins.i_tickets (float_of_int (Hashtbl.length t.tickets));
  Metrics.set t.ins.i_uptime (Unix.gettimeofday () -. t.started);
  Metrics.set t.ins.i_draining (if t.draining then 1. else 0.);
  Metrics.snapshot t.cfg.metrics

(* ------------------------------------------------------------------ *)
(* Socket setup / teardown                                             *)
(* ------------------------------------------------------------------ *)

let listen_socket (Protocol.Unix_socket path) =
  (if Sys.file_exists path then begin
     (* A live daemon refuses the bind; a stale socket from a dead one is
        unlinked after a probe connect fails. *)
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let alive =
       try
         Unix.connect probe (Unix.ADDR_UNIX path);
         true
       with _ -> false
     in
     (try Unix.close probe with _ -> ());
     if alive then failwith (Printf.sprintf "a daemon is already serving on %s" path)
     else try Sys.remove path with _ -> ()
   end);
  (* Bind and listen under a temporary name in the same directory, then
     rename onto [path]: clients take the file's appearance as readiness,
     so it appears only once connects succeed. A dot and the pid keep the
     name short (at most eight bytes), since the whole path must fit
     [sun_path]. *)
  let tmp = Filename.concat (Filename.dirname path) (Printf.sprintf ".%d" (Unix.getpid ())) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     (try Sys.remove tmp with Sys_error _ -> ());
     Unix.bind fd (Unix.ADDR_UNIX tmp);
     Unix.listen fd 64;
     Unix.rename tmp path
   with e ->
     (try Unix.close fd with _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  fd

let close_listener t =
  (try Unix.close t.listen_fd with _ -> ());
  try Sys.remove (Protocol.address_to_string t.cfg.address) with _ -> ()

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

let deliver_to_ticket t ~ticket ~index ~source ~seconds outcome =
  match Hashtbl.find_opt t.tickets ticket with
  | None -> () (* freed with its connection *)
  | Some tk ->
      if tk.t_outcomes.(index) = None then begin
        tk.t_outcomes.(index) <- Some outcome;
        tk.t_sources.(index) <- source;
        tk.t_seconds.(index) <- seconds;
        tk.t_done <- tk.t_done + 1;
        if tk.t_done = tk.t_total && tk.t_conn.c_held = Some ticket then
          Queue.push ticket t.complete
      end

let resolve_pending t fp ~seconds (outcome : Outcome.t) =
  match Hashtbl.find_opt t.pending fp with
  | None -> ()
  | Some p ->
      List.iter
        (fun w ->
          deliver_to_ticket t ~ticket:w.wt_ticket ~index:w.wt_index
            ~source:w.wt_source ~seconds outcome)
        (List.rev p.p_waiters);
      Hashtbl.remove t.pending fp

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* Span args carry the fingerprint prefix (and the queuing client's trace
   id when its hello sent one) so merged traces can be joined back to
   jobs. [fp] is the job's pending key, its {!Job.fingerprint}. *)
let span_args fp p =
  ("fp", Tracer.Str (String.sub fp 0 12))
  :: Option.fold ~none:[] ~some:(fun id -> [ ("trace_id", Tracer.Str id) ]) p.p_trace_id

let dispatch_one t fp =
  match Hashtbl.find_opt t.pending fp with
  | None -> () (* evaporated (shouldn't happen) *)
  | Some p ->
      let wait = Float.max 0. (Unix.gettimeofday () -. p.p_enqueued) in
      Metrics.observe t.ins.i_wait wait;
      Tracer.complete t.tracer ~now:(us p.p_enqueued) ~dur:(us wait) ~tid:1
        ~args:(span_args fp p) ~cat:"serve" "queue-wait";
      Workers.submit t.workers fp p.p_job

let rec fill_workers t =
  if Workers.idle t.workers > 0 then
    match Queue.take_opt t.queue with
    | Some fp ->
        dispatch_one t fp;
        fill_workers t
    | None -> ()

(* Every finished job — a result, or the pool's verdict on a timeout or a
   second worker death — is stored (when cacheable), timed and fanned out
   to its waiters. *)
let finish t (f : string Workers.finished) =
  Cache.store t.cfg.store f.key f.outcome;
  Metrics.inc t.ins.i_executed;
  Metrics.observe t.ins.i_simulate f.seconds;
  (match Hashtbl.find_opt t.pending f.key with
  | Some p ->
      Tracer.complete t.tracer ~now:(us f.started) ~dur:(us f.seconds) ~pid:f.pid
        ~args:(span_args f.key p) ~cat:"serve" "simulate"
  | None -> ());
  resolve_pending t f.key ~seconds:f.seconds f.outcome

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

(* Answer index [index] of ticket [id] from the store, or coalesce it
   onto the queued or running execution of the same fingerprint. False
   when neither can: the job has to run. *)
let resolve t ~id ~index fp =
  match Cache.find t.cfg.store fp with
  | Some outcome ->
      deliver_to_ticket t ~ticket:id ~index ~source:Protocol.Hit ~seconds:0. outcome;
      true
  | None -> (
      match Hashtbl.find_opt t.pending fp with
      | Some p ->
          (* Same fingerprint already queued or running (possibly for
             another client): coalesce. *)
          Metrics.inc t.ins.i_batched;
          p.p_waiters <-
            { wt_ticket = id; wt_index = index; wt_source = Protocol.Batched }
            :: p.p_waiters;
          true
      | None -> false)

let enqueue t ~id ~index tk fp job =
  let p =
    {
      p_job = job;
      p_enqueued = Unix.gettimeofday ();
      p_trace_id = tk.t_conn.c_trace_id;
      p_waiters = [ { wt_ticket = id; wt_index = index; wt_source = Protocol.Executed } ];
    }
  in
  Hashtbl.replace t.pending fp p;
  Queue.push fp t.queue;
  (* An idle worker starts on this job now, while the rest of the supply
     is still being queued. *)
  fill_workers t

(* A complete ticket's answer: each job's source and seconds, and its
   outcomes as the payload. *)
let outcomes_reply id tk =
  let list f a = Json.List (Array.to_list (Array.map f a)) in
  ( Protocol.ok
      [
        ("ticket", Json.Int id);
        ("sources", list (fun s -> Json.String (Protocol.source_to_string s)) tk.t_sources);
        ("seconds", list (fun s -> Json.Float s) tk.t_seconds);
      ],
    Protocol.outcomes_to_wire (Array.map Option.get tk.t_outcomes) )

(* The request that leaves ticket [id] needing no more bodies is answered
   with its outcomes once it completes; until then [conn] is not read. *)
let hold t conn id tk =
  conn.c_held <- Some id;
  if tk.t_done = tk.t_total then Queue.push id t.complete;
  None

let handle_submit t conn ~keys =
  if t.draining then Some (Protocol.error "draining: daemon is shutting down")
  else begin
    let keys = Array.of_list keys in
    let total = Array.length keys in
    let id = t.next_ticket in
    t.next_ticket <- id + 1;
    let tk =
      {
        t_conn = conn;
        t_total = total;
        t_keys = keys;
        t_need = [||];
        t_outcomes = Array.make total None;
        t_sources = Array.make total Protocol.Hit;
        t_seconds = Array.make total 0.;
        t_done = 0;
      }
    in
    Hashtbl.replace t.tickets id tk;
    tk.t_need <-
      Array.of_list
        (List.filter
           (fun index ->
             Metrics.inc t.ins.i_submitted;
             not (resolve t ~id ~index keys.(index)))
           (List.init total Fun.id));
    if tk.t_need = [||] then hold t conn id tk
    else
      Some
        (Protocol.ok
           [
             ("ticket", Json.Int id);
             ("need", Json.List (List.map (fun i -> Json.Int i) (Array.to_list tk.t_need)));
           ])
  end

(* Nothing of a supply is used until all of it checks out: the ticket is
   this connection's, the supply holds one body per needed index, and each
   body fingerprints to the key submitted at its index. *)
let handle_supply t conn ~ticket ~jobs =
  let error msg = Some (Protocol.error msg) in
  match Hashtbl.find_opt t.tickets ticket with
  | None -> error "unknown ticket"
  | Some tk when tk.t_conn != conn -> error "unknown ticket"
  | Some _ when t.draining -> error "draining: daemon is shutting down"
  | Some tk -> (
      let n = Array.length tk.t_need in
      match Protocol.jobs_of_wire jobs with
      | exception _ -> error "undecodable job payload"
      | bodies when Array.length bodies <> n ->
          error (Printf.sprintf "%d job bodies for %d needed" (Array.length bodies) n)
      | bodies -> (
          let fps = Job.fingerprints bodies in
          let forged k = fps.(k) <> tk.t_keys.(tk.t_need.(k)) in
          match List.find_opt forged (List.init n Fun.id) with
          | Some k ->
              error
                (Printf.sprintf "job body for index %d does not match its submitted key"
                   tk.t_need.(k))
          | None ->
              Array.iteri
                (fun k index ->
                  Metrics.inc t.ins.i_supplied;
                  if not (resolve t ~id:ticket ~index fps.(k)) then
                    enqueue t ~id:ticket ~index tk fps.(k) bodies.(k))
                tk.t_need;
              hold t conn ticket tk))

let op_name = function
  | Protocol.Hello _ -> "hello"
  | Protocol.Submit _ -> "submit"
  | Protocol.Supply _ -> "supply"
  | Protocol.Metrics -> "metrics"
  | Protocol.Trace _ -> "trace"

(* The reply to [req], or [None] while it is held (see {!hold}). *)
let handle_request t conn (req : Protocol.request) =
  Metrics.inc
    (Metrics.counter t.cfg.metrics ~help:"Wire requests handled, by op"
       ~labels:[ ("op", op_name req) ]
       "serve_requests_total");
  match req with
  | Protocol.Hello { revision; format; trace_id } ->
      Some
        (if revision <> Revision.stamp then
           Protocol.error
             (Printf.sprintf "revision mismatch: daemon %s, client %s" Revision.stamp
                revision)
         else if format <> Revision.format_version then
           Protocol.error
             (Printf.sprintf "format mismatch: daemon %d, client %d"
                Revision.format_version format)
         else begin
           conn.c_hello <- true;
           conn.c_trace_id <- trace_id;
           Protocol.ok [ ("workers", Json.Int t.cfg.workers) ]
         end)
  | _ when not conn.c_hello -> Some (Protocol.error "hello required before any other op")
  | Protocol.Submit { keys } -> handle_submit t conn ~keys
  | Protocol.Supply { ticket; jobs } -> handle_supply t conn ~ticket ~jobs
  | Protocol.Metrics -> Some (Protocol.ok [ ("metrics", Metrics.to_json (snapshot t)) ])
  | Protocol.Trace { since } ->
      (* Incremental read of the span ring: events carry a global index
         (recorded order); [since] is the client's cursor. Overwritten
         events are reported as dropped, not silently skipped. *)
      let events = Tracer.events t.tracer in
      let recorded = Tracer.recorded t.tracer in
      let first = recorded - List.length events in
      let fresh =
        List.filteri (fun i _ -> first + i >= since) events
      in
      Some
        (Protocol.ok
           [
             ("events", Json.List (List.map Tracer.event_json fresh));
             ("next", Json.Int recorded);
             ("dropped", Json.Int (max 0 (first - since)));
             ("pid", Json.Int (Unix.getpid ()));
           ])

(* ------------------------------------------------------------------ *)
(* Client connections                                                  *)
(* ------------------------------------------------------------------ *)

(* Closing a connection frees its tickets. Their queued and running jobs
   still finish and fill the store. *)
let close_conn t conn =
  (try Unix.close conn.c_fd with _ -> ());
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Hashtbl.filter_map_inplace
    (fun _ tk -> if tk.t_conn == conn then None else Some tk)
    t.tickets

let unsent conn = Bytes.length conn.c_out - conn.c_sent

(* Write what the socket takes of the unsent bytes, without blocking.
   False when the peer is gone. *)
let flush conn =
  match Unix.write conn.c_fd conn.c_out conn.c_sent (unsent conn) with
  | n ->
      conn.c_sent <- conn.c_sent + n;
      conn.c_progress <- Unix.gettimeofday ();
      if unsent conn = 0 then begin
        conn.c_out <- Bytes.empty;
        conn.c_sent <- 0
      end;
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
  | exception Unix.Unix_error _ -> false

(* [frame] becomes the connection's only unsent bytes: a connection with
   unsent bytes is not read, and a held reply answers a request that got
   no reply of its own. *)
let queue_frame conn frame =
  conn.c_out <- frame;
  conn.c_sent <- 0;
  conn.c_progress <- Unix.gettimeofday ();
  flush conn

(* Take whole frames off the connection's reader and answer each, until
   a reply is held or the socket does not take all of one. *)
let rec service_conn_buffer t conn =
  if conn.c_held = None && unsent conn = 0 then
    match Wire.take conn.c_reader with
    | None -> ()
    | exception Wire.Protocol_error msg ->
        (* The stream has lost its framing: the error reply gets what
           the socket takes now, and the connection closes. *)
        ignore (queue_frame conn (Wire.frame (Protocol.error msg)));
        close_conn t conn
    | Some frame -> (
        match Result.bind frame Protocol.request_of_wire with
        | Error msg -> reply t conn (Protocol.error msg)
        | Ok req -> Option.iter (reply t conn) (handle_request t conn req))

and reply ?payload t conn response =
  match Wire.frame ?payload response with
  | exception Wire.Protocol_error _ -> close_conn t conn
  | frame ->
      if queue_frame conn frame then service_conn_buffer t conn else close_conn t conn

(* More of the unsent bytes, then, once they are all sent, the frames
   read behind them. *)
let conn_writable t conn =
  if flush conn then service_conn_buffer t conn else close_conn t conn

(* Send the held reply of every completed ticket. That frees the ticket
   and lets its connection be read again, from the frames it buffered. *)
let rec send_completed t =
  match Queue.take_opt t.complete with
  | None -> ()
  | Some id ->
      (match Hashtbl.find_opt t.tickets id with
      | None -> () (* freed with its connection *)
      | Some tk ->
          Hashtbl.remove t.tickets id;
          tk.t_conn.c_held <- None;
          let response, payload = outcomes_reply id tk in
          reply ~payload t tk.t_conn response);
      send_completed t

let conn_readable t conn =
  match Wire.read conn.c_reader conn.c_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception _ -> close_conn t conn
  | 0 -> close_conn t conn
  | _ ->
      conn.c_progress <- Unix.gettimeofday ();
      service_conn_buffer t conn

(* The connections being read: those with no reply held or unsent. *)
let reading t = List.filter (fun c -> c.c_held = None && unsent c = 0) t.conns

let writing t = List.filter (fun c -> unsent c > 0) t.conns

(* Complete frames linger in a buffer only behind a held or unsent
   reply, so a connection being read with a non-empty buffer holds a
   half-sent frame. *)
let close_stalled t =
  let now = Unix.gettimeofday () in
  let close conn what =
    Log.warn ~scope:"serve"
      ~kv:
        [
          ("buffered", Log.int (Wire.buffered conn.c_reader));
          ("unsent", Log.int (unsent conn));
        ]
      what;
    close_conn t conn
  in
  List.iter
    (fun conn ->
      if now -. conn.c_progress > frame_stall_seconds then
        if unsent conn > 0 then
          close conn "closing a connection that takes none of its reply"
        else if conn.c_held = None && Wire.buffered conn.c_reader > 0 then
          close conn "closing a connection stalled mid-frame")
    t.conns

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let drain_requested = ref false

let install_signal_handlers () =
  let handle = Sys.Signal_handle (fun _ -> drain_requested := true) in
  List.iter
    (fun s -> try Sys.set_signal s handle with _ -> ())
    [ Sys.sigterm; Sys.sigint ]

(* Unsent replies count: a drain ends once they are out, or their
   connections are closed as stalled. *)
let work_left t =
  (not (Queue.is_empty t.queue)) || Workers.busy t.workers > 0 || writing t <> []

let serve cfg =
  let tracer = Tracer.ring ~capacity:16384 () in
  Tracer.set_pid tracer (Unix.getpid ());
  Tracer.set_process_name tracer "riq-serve";
  Tracer.set_thread_name tracer ~tid:0 "daemon";
  Tracer.set_thread_name tracer ~tid:1 "queue";
  let listen_fd = listen_socket cfg.address in
  (* A client that disappears mid-write must not kill the daemon. *)
  let old_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with _ -> None
  in
  (* A worker must not keep the listener or any client connection open;
     the hook is set once [t] exists. *)
  let close_sockets = ref ignore in
  let on_spawn pid =
    Tracer.set_process_name tracer ~pid (Printf.sprintf "riq-serve worker %d" pid);
    Log.debug ~scope:"serve" ~kv:[ ("pid", Log.int pid) ] "worker spawned"
  in
  let t =
    {
      cfg;
      listen_fd;
      ins = instruments_of cfg.metrics;
      tracer;
      conns = [];
      workers =
        Workers.create
          ~in_child:(fun () -> !close_sockets ())
          ~on_spawn ~workers:cfg.workers ~timeout:cfg.timeout ();
      pending = Hashtbl.create 256;
      queue = Queue.create ();
      tickets = Hashtbl.create 64;
      complete = Queue.create ();
      next_ticket = 1;
      draining = false;
      started = Unix.gettimeofday ();
    }
  in
  (close_sockets :=
     fun () ->
       List.iter
         (fun fd -> try Unix.close fd with _ -> ())
         (t.listen_fd :: List.map (fun c -> c.c_fd) t.conns));
  drain_requested := false;
  install_signal_handlers ();
  Log.info ~scope:"serve"
    ~kv:
      [
        ("address", Protocol.address_to_string cfg.address);
        ("workers", Log.int cfg.workers);
        ("store", Cache.root cfg.store);
        ("pid", Log.int (Unix.getpid ()));
      ]
    "listening";
  let listener_open = ref true in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> try Unix.close c.c_fd with _ -> ()) t.conns;
      t.conns <- [];
      Workers.shutdown t.workers;
      if !listener_open then close_listener t;
      match old_sigpipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
      | None -> ())
    (fun () ->
      let running = ref true in
      while !running do
        if !drain_requested && not t.draining then begin
          t.draining <- true;
          Log.info ~scope:"serve"
            ~kv:
              [
                ("queued", Log.int (Queue.length t.queue));
                ("inflight", Log.int (Workers.busy t.workers));
              ]
            "drain requested";
          (* Stop accepting new clients; held replies still go out. *)
          close_listener t;
          listener_open := false
        end;
        if t.draining && not (work_left t) then running := false
        else begin
          fill_workers t;
          let read_fds =
            (if !listener_open then [ t.listen_fd ] else [])
            @ List.map (fun c -> c.c_fd) (reading t)
            @ Workers.fds t.workers
          in
          let select_timeout =
            match Workers.deadline t.workers with Some d -> Float.min 1.0 d | None -> 1.0
          in
          let write_fds = List.map (fun c -> c.c_fd) (writing t) in
          let readable, writable =
            match Unix.select read_fds write_fds [] select_timeout with
            | r, w, _ -> (r, w)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
            | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [])
          in
          (* Workers first: results unblock waiters and free slots. *)
          List.iter (finish t) (Workers.collect t.workers readable);
          List.iter
            (fun conn -> if List.memq conn.c_fd readable then conn_readable t conn)
            t.conns;
          List.iter
            (fun conn -> if List.memq conn.c_fd writable then conn_writable t conn)
            t.conns;
          send_completed t;
          close_stalled t;
          if !listener_open && List.memq t.listen_fd readable then begin
            match Unix.accept t.listen_fd with
            | fd, _ -> (
                match Unix.set_nonblock fd with
                | exception Unix.Unix_error _ -> ( try Unix.close fd with _ -> ())
                | () ->
                    t.conns <-
                      {
                        c_fd = fd;
                        c_reader = Wire.reader ();
                        c_hello = false;
                        c_trace_id = None;
                        c_held = None;
                        c_out = Bytes.empty;
                        c_sent = 0;
                        c_progress = Unix.gettimeofday ();
                      }
                      :: t.conns)
            | exception _ -> ()
          end
        end
      done;
      Log.info ~scope:"serve" "drained, shutting down")

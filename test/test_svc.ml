(* The serving subsystem: wire framing, protocol message round-trips, the
   shared store's concurrency machinery ({!Cache}: maintenance lock, LRU
   eviction, gc), and an end-to-end forked daemon exercised through the
   engine's remote backend — including the 100%-hit repeat, the SIGTERM
   drain, a job past its budget, frames split across socket reads and a
   peer that never reads its replies. *)

open Riq_asm
open Riq_ooo
open Riq_util
open Riq_exp
open Riq_svc

let tiny_program =
  Parse.program_exn
    {|
    li r2, 0
    li r3, 0
loop:
    add r2, r2, r3
    addi r3, r3, 1
    slti r4, r3, 50
    bne r4, r0, loop
    halt
|}

let tiny_job ?(check = false) ?(cycle_limit = Job.default_cycle_limit) () =
  Job.make ~check ~cycle_limit Config.baseline tiny_program

let rm_rf dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let with_temp_dir f =
  let dir = Filename.temp_dir "riq-svc-test" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_temp_store f =
  with_temp_dir (fun dir -> f (Cache.open_ ~root:(Filename.concat dir "cache") ()))

(* ------------------------------------------------------------------ *)
(* Wire framing                                                        *)
(* ------------------------------------------------------------------ *)

(* One request's frame bytes. *)
let request_frame req =
  let json, payload = Protocol.request_to_wire req in
  Wire.frame ?payload json

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with _ -> ()) [ r; w ])
    (fun () -> f r w)

let test_frame_round_trip () =
  with_pipe (fun r w ->
      let docs =
        [
          Json.Null;
          Json.Obj [ ("op", Json.String "hello"); ("n", Json.Int 42) ];
          Json.List [ Json.Bool true; Json.Float 2.5; Json.String "x\ny" ];
        ]
      in
      List.iter (Wire.send w) docs;
      List.iter
        (fun doc ->
          let json, payload = Wire.recv r in
          Alcotest.(check string) "framed document round trip" (Json.to_string doc)
            (Json.to_string json);
          Alcotest.(check bool) "no payload" true (payload = None))
        docs;
      (* Without a payload a frame is length-prefixed JSON, as it was
         before payloads existed. *)
      let text = Json.to_string (List.nth docs 1) in
      let b = Bytes.create 4 in
      Bytes.set_int32_be b 0 (Int32.of_int (String.length text));
      Alcotest.(check string) "payload-free frame layout"
        (Bytes.to_string b ^ text)
        (Bytes.to_string (Wire.frame (List.nth docs 1))))

(* A payload is raw bytes after a 0x00: an empty one, one of 0x00 bytes
   and one after a string that escapes 0x00 all come back whole, and a
   reader splits a frame that arrives one byte per read the way [recv]
   does. *)
let test_payload_frame_round_trip () =
  let doc = Json.Obj [ ("op", Json.String "x\000y"); ("n", Json.Int 1) ] in
  let payloads = [ ""; String.make 4096 '\000'; "\000{\"op\":1}\000" ] in
  with_pipe (fun r w ->
      List.iter
        (fun payload ->
          Wire.send ~payload w doc;
          let json, got = Wire.recv r in
          Alcotest.(check string) "json beside a payload" (Json.to_string doc)
            (Json.to_string json);
          Alcotest.(check (option string)) "payload round trip" (Some payload) got)
        payloads);
  with_pipe (fun r w ->
      List.iter
        (fun payload ->
          let frame = Wire.frame ~payload doc in
          let reader = Wire.reader () in
          Bytes.iteri
            (fun i c ->
              Wire.write_all w (Bytes.make 1 c);
              ignore (Wire.read reader r);
              match Wire.take reader with
              | None when i < Bytes.length frame - 1 -> ()
              | Some (Ok (json, got)) when i = Bytes.length frame - 1 ->
                  Alcotest.(check string) "taken json" (Json.to_string doc)
                    (Json.to_string json);
                  Alcotest.(check (option string)) "taken payload" (Some payload) got
              | _ -> Alcotest.failf "take at byte %d of %d" i (Bytes.length frame))
            frame;
          Alcotest.(check int) "reader drained" 0 (Wire.buffered reader))
        payloads)

(* Taking the frames of one read costs time linear in the read's size: a
   64 KiB read of 4,681 pipelined 14-byte frames drains at no more than
   twice the per-frame time of a read of 512 (best of seven each, so a
   stray collection or preemption does not decide it). *)
let test_drain_is_linear () =
  let frame = Wire.frame (Json.Obj [ ("op", Json.String "x") ]) in
  Alcotest.(check int) "a 14-byte frame" 14 (Bytes.length frame);
  let per_frame n =
    with_pipe (fun r w ->
        let best = ref infinity in
        for _ = 1 to 7 do
          let reader = Wire.reader () in
          Wire.write_all w (Bytes.concat Bytes.empty (List.init n (fun _ -> frame)));
          Alcotest.(check int) "one read holds every frame" (14 * n) (Wire.read reader r);
          let t0 = Unix.gettimeofday () in
          let rec drain k =
            match Wire.take reader with
            | Some (Ok _) -> drain (k + 1)
            | Some (Error msg) -> Alcotest.fail msg
            | None -> k
          in
          let taken = drain 0 in
          let dt = Unix.gettimeofday () -. t0 in
          Alcotest.(check int) "every frame taken" n taken;
          best := Float.min !best (dt /. float_of_int n)
        done;
        !best)
  in
  let small = per_frame 512 and large = per_frame 4681 in
  if large > 2. *. small then
    Alcotest.failf "%.2f us a frame at 4,681 frames, %.2f us at 512" (large *. 1e6)
      (small *. 1e6)

let test_frame_rejects_oversized () =
  with_pipe (fun r w ->
      (* A length prefix claiming far more than max_frame must be refused
         before any allocation or read of the payload. *)
      let b = Bytes.create 4 in
      Bytes.set_int32_be b 0 0x7FFFFFFFl;
      Wire.write_all w b;
      match Wire.recv r with
      | _ -> Alcotest.fail "oversized frame accepted"
      | exception Wire.Protocol_error _ -> ())

let test_frame_eof_is_closed () =
  let r, w = Unix.pipe () in
  Unix.close w;
  Fun.protect
    ~finally:(fun () -> try Unix.close r with _ -> ())
    (fun () ->
      match Wire.recv r with
      | _ -> Alcotest.fail "read from closed pipe"
      | exception Wire.Closed -> ())

(* ------------------------------------------------------------------ *)
(* Protocol messages                                                   *)
(* ------------------------------------------------------------------ *)

let test_request_round_trip () =
  let hello trace_id =
    Protocol.Hello { revision = Revision.stamp; format = Revision.format_version; trace_id }
  in
  let reqs =
    [
      hello None;
      hello (Some "42-00abcd");
      Protocol.Submit { keys = [ String.make 32 'a'; Job.fingerprint (tiny_job ()) ] };
      Protocol.Submit { keys = [] };
      Protocol.Supply { ticket = 7; jobs = "\000ab\255" };
      Protocol.Supply { ticket = 8; jobs = "" };
      Protocol.Metrics;
      Protocol.Trace { since = 12 };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.request_of_wire (Protocol.request_to_wire r) with
      | Ok r' -> Alcotest.(check bool) "request round trip" true (r = r')
      | Error msg -> Alcotest.fail ("request did not round trip: " ^ msg))
    reqs;
  let refused what frame =
    match Protocol.request_of_wire frame with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error msg -> msg
  in
  ignore (refused "unknown op" (Json.Obj [ ("op", Json.String "nonsense") ], None));
  (* Only a supply carries a payload, and a supply always does. *)
  let supply, jobs = Protocol.request_to_wire (List.nth reqs 4) in
  Alcotest.(check string) "a supply names its ticket only" {|{"op":"supply","ticket":7}|}
    (Json.to_string supply);
  ignore (refused "supply without a payload" (supply, None));
  let metrics, _ = Protocol.request_to_wire Protocol.Metrics in
  ignore (refused "metrics with a payload" (metrics, jobs));
  let hello_json protocol extra =
    Json.Obj
      ([
         ("op", Json.String "hello");
         ("protocol", Json.String protocol);
         ("revision", Json.String Revision.stamp);
         ("format", Json.Int Revision.format_version);
       ]
      @ extra)
  in
  ignore
    (refused "a trace id that is not a string"
       (hello_json Protocol.version [ ("trace_id", Json.Int 3) ], None));
  (* A client of another protocol is refused at its hello: riq-serve/3
     still had the stats op, riq-serve/4 carried payloads as hex, and
     riq-serve/5 had job classes and partial supplies. *)
  List.iter
    (fun protocol ->
      Alcotest.(check string) (protocol ^ " hello refused")
        (Printf.sprintf "protocol mismatch: daemon riq-serve/6, client %s" protocol)
        (refused (protocol ^ " hello") (hello_json protocol [], None)))
    [ "riq-serve/2"; "riq-serve/3"; "riq-serve/4"; "riq-serve/5" ];
  (* A key names a store entry: anything but 32 lowercase hex digits is
     refused before the daemon sees it. *)
  List.iter
    (fun key ->
      let submit = Json.Obj [ ("op", Json.String "submit"); ("keys", Json.List [ key ]) ] in
      match Protocol.request_of_wire (submit, None) with
      | Ok _ -> Alcotest.failf "key %s accepted" (Json.to_string key)
      | Error _ -> ())
    [
      Json.Int 1;
      Json.String "";
      Json.String (String.make 31 'a');
      Json.String (String.make 32 'A');
      Json.String ("../../" ^ String.make 26 'a');
    ];
  Alcotest.(check bool) "ok is ok" true (Protocol.is_ok (Protocol.ok []));
  Alcotest.(check bool) "error is not ok" false (Protocol.is_ok (Protocol.error "boom"));
  Alcotest.(check string) "error text" "boom" (Protocol.error_of (Protocol.error "boom"))

let test_job_outcome_wire () =
  let job = tiny_job ~check:true () in
  let jobs = [| job; Job.make Config.reuse tiny_program |] in
  Alcotest.(check (array string))
    "jobs survive the wire" (Job.fingerprints jobs)
    (Job.fingerprints (Protocol.jobs_of_wire (Protocol.jobs_to_wire jobs)));
  (* One array keeps Marshal's sharing: btrix's image travels once for
     two jobs. *)
  let btrix = Riq_workloads.Workloads.(program (find "btrix")) in
  let one = String.length (Protocol.jobs_to_wire [| Job.make Config.baseline btrix |]) in
  let two =
    String.length
      (Protocol.jobs_to_wire [| Job.make Config.baseline btrix; Job.make Config.reuse btrix |])
  in
  Alcotest.(check bool) "a shared program is encoded once" true (two < one + (one / 10));
  let outcome = Runner.execute job in
  Alcotest.(check bool) "tiny job succeeds" true (Result.is_ok outcome);
  let outcomes = [| outcome; Error (Outcome.Job_timeout 1.5) |] in
  Alcotest.(check bool) "outcomes survive the wire, in order" true
    (Protocol.outcomes_of_wire (Protocol.outcomes_to_wire outcomes) = outcomes)

(* The paper sweep's cold supply ships its marshalled jobs as they are:
   the frame is the payload plus a little JSON. *)
let test_supply_frame_size () =
  let jobs = Riq_harness.Sweep.jobs ~check:true () in
  Alcotest.(check int) "the paper sweep is 64 jobs" 64 (Array.length jobs);
  let marshalled = String.length (Marshal.to_string jobs []) in
  let frame =
    request_frame (Protocol.Supply { ticket = 1; jobs = Protocol.jobs_to_wire jobs })
  in
  let size = Bytes.length frame in
  if size > marshalled + 1024 then
    Alcotest.failf "supply frame %d B for %d B of marshalled jobs" size marshalled

let test_address_parsing () =
  List.iter
    (fun s ->
      Alcotest.(check string) (s ^ " is a socket path") s
        (match Protocol.address_of_string s with Protocol.Unix_socket path -> path))
    [ "localhost:8080"; "/tmp/riq.sock"; "./relative:name" ]

(* ------------------------------------------------------------------ *)
(* Shared store (Cache)                                                *)
(* ------------------------------------------------------------------ *)

let stored_outcome = lazy (Runner.execute (tiny_job ()))

let store_n store n =
  (* n distinct fingerprints with distinct, strictly increasing mtimes. *)
  let outcome = Lazy.force stored_outcome in
  List.map
    (fun i ->
      let key = Job.fingerprint (tiny_job ~cycle_limit:(1000 + i) ()) in
      Cache.store store key outcome;
      key)
    (List.init n Fun.id)

let set_mtimes store keys =
  (* Pin every entry's mtime explicitly (index order = recency order) so
     eviction and gc decisions are deterministic under test. *)
  let now = Unix.gettimeofday () in
  List.iteri
    (fun i key ->
      let entry =
        List.find
          (fun e -> Filename.basename e.Cache.e_path = key)
          (Cache.entries store)
      in
      let t = now -. 1000. +. (10. *. float_of_int i) in
      Unix.utimes entry.Cache.e_path t t)
    keys;
  now

let test_store_round_trip () =
  with_temp_store (fun store ->
      let job = tiny_job () in
      let key = Job.fingerprint job in
      Alcotest.(check bool) "cold miss" true (Cache.find store key = None);
      let outcome = Lazy.force stored_outcome in
      Cache.store store key outcome;
      Alcotest.(check bool) "hit after store" true (Cache.find store key = Some outcome);
      let s = Cache.stat store in
      Alcotest.(check int) "one entry" 1 s.Cache.entry_count;
      Alcotest.(check bool) "bytes counted" true (s.Cache.total_bytes > 0);
      (* The whole-tree view also sees an entry a format bump left behind. *)
      let shard = List.fold_left Filename.concat (Cache.root store) [ "v7"; Revision.stamp; "ab" ] in
      ignore (Sys.command ("mkdir -p " ^ Filename.quote shard));
      Out_channel.with_open_bin (Filename.concat shard ("ab" ^ String.make 30 '0')) (fun oc ->
          output_string oc "an entry of an older format");
      Alcotest.(check int) "entries of every format" 2 (Cache.stat store).Cache.entry_count)

let test_store_find_touches () =
  with_temp_store (fun store ->
      let keys = store_n store 1 in
      let key = List.hd keys in
      let entry () = List.hd (Cache.entries store) in
      Unix.utimes (entry ()).Cache.e_path 1000. 1000.;
      Alcotest.(check bool) "mtime pinned old" true ((entry ()).Cache.e_mtime < 2000.);
      ignore (Cache.find store key);
      (* A read refreshes recency: the entry must no longer be the
         1000-epoch relic, i.e. LRU order follows use, not creation. *)
      Alcotest.(check bool) "read refreshed mtime" true
        ((entry ()).Cache.e_mtime > 1000000.))

let test_store_eviction_respects_budget () =
  with_temp_store (fun store ->
      let keys = store_n store 5 in
      ignore (set_mtimes store keys);
      let per_entry = (List.hd (Cache.entries store)).Cache.e_bytes in
      let budget = (2 * per_entry) + (per_entry / 2) in
      let removed = Cache.evict_to_budget store budget in
      Alcotest.(check int) "evicted down to budget" 3 removed;
      let s = Cache.stat store in
      Alcotest.(check int) "two entries left" 2 s.Cache.entry_count;
      Alcotest.(check bool) "under budget" true (s.Cache.total_bytes <= budget);
      (* LRU: the two most recently used survive. *)
      let survivors = List.map (fun e -> Filename.basename e.Cache.e_path) (Cache.entries store) in
      List.iteri
        (fun i key ->
          Alcotest.(check bool)
            (Printf.sprintf "entry %d %s" i (if i >= 3 then "kept" else "evicted"))
            (i >= 3) (List.mem key survivors))
        keys)

let test_store_gc_respects_cutoff () =
  with_temp_store (fun store ->
      let keys = store_n store 4 in
      let now = set_mtimes store keys in
      (* Ages are 1000, 990, 980, 970 seconds; cut at 985. *)
      let removed, bytes = Cache.gc ~now store ~max_age_seconds:985. in
      Alcotest.(check int) "two old entries removed" 2 removed;
      Alcotest.(check bool) "bytes freed" true (bytes > 0);
      let survivors = List.map (fun e -> Filename.basename e.Cache.e_path) (Cache.entries store) in
      List.iteri
        (fun i key ->
          Alcotest.(check bool)
            (Printf.sprintf "entry %d newer than cutoff %s" i
               (if i >= 2 then "kept" else "removed"))
            (i >= 2) (List.mem key survivors))
        keys;
      let removed', _ = Cache.gc ~now store ~max_age_seconds:985. in
      Alcotest.(check int) "gc is idempotent" 0 removed')

(* A negative bound would empty the store: gc's cutoff would lie in the
   future, and every entry is over a budget below zero. Both are refused
   before anything is deleted. *)
let test_store_negative_bounds_refused () =
  with_temp_store (fun store ->
      ignore (store_n store 3);
      let refused what f =
        match f () with
        | _ -> Alcotest.failf "%s was accepted" what
        | exception Invalid_argument _ -> ()
      in
      refused "gc at a negative age" (fun () -> Cache.gc store ~max_age_seconds:(-5.));
      refused "eviction to a negative budget" (fun () -> Cache.evict_to_budget store (-1));
      Alcotest.(check int) "every entry survives" 3 (Cache.stat store).Cache.entry_count)

(* The kernel frees the lock with its holder: a holder SIGKILLed inside
   [with_lock] does not wedge the next one, which takes the lock within
   1 s. The next taker runs in a child, so a lock that is never freed
   fails the test instead of hanging it. *)
let test_store_lock_holder_killed () =
  if not Sys.unix then ()
  else
    with_temp_store (fun store ->
        let fork_child f =
          flush stdout;
          flush stderr;
          match Unix.fork () with
          | 0 -> (try f () with _ -> Unix._exit 1); Unix._exit 0
          | pid -> pid
        in
        let r, w = Unix.pipe () in
        let holder =
          fork_child (fun () ->
              Cache.with_lock store (fun () ->
                  ignore (Unix.write_substring w "!" 0 1);
                  ignore (Unix.select [] [] [] 60.)))
        in
        Unix.close w;
        let inside = Unix.read r (Bytes.create 1) 0 1 = 1 in
        Unix.close r;
        Unix.kill holder Sys.sigkill;
        ignore (Unix.waitpid [] holder);
        if not inside then Alcotest.fail "the holder never took the lock";
        let next = fork_child (fun () -> Cache.with_lock store ignore) in
        let deadline = Unix.gettimeofday () +. 1. in
        let rec await () =
          match Unix.waitpid [ Unix.WNOHANG ] next with
          | 0, _ when Unix.gettimeofday () < deadline ->
              ignore (Unix.select [] [] [] 0.01);
              await ()
          | 0, _ ->
              Unix.kill next Sys.sigkill;
              ignore (Unix.waitpid [] next);
              Alcotest.fail "the next holder still waits after 1 s"
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "the next holder failed"
        in
        await ())

(* Cross-process mutual exclusion: two forked writers increment a shared
   counter file under the store lock; lost updates would leave the final
   count short. *)
let test_store_lock_contention () =
  if not Sys.unix then ()
  else
    with_temp_store (fun store ->
        let counter = Filename.concat (Cache.root store) "counter" in
        let oc = open_out counter in
        output_string oc "0";
        close_out oc;
        let rounds = 25 in
        let child () =
          for _ = 1 to rounds do
            Cache.with_lock store (fun () ->
                let ic = open_in counter in
                let v = int_of_string (input_line ic) in
                close_in ic;
                (* Widen the race window: hold the lock across the
                   read-modify-write. *)
                ignore (Unix.select [] [] [] 0.001);
                let oc = open_out counter in
                output_string oc (string_of_int (v + 1));
                close_out oc)
          done;
          Unix._exit 0
        in
        flush stdout;
        flush stderr;
        let pids =
          List.init 2 (fun _ -> match Unix.fork () with 0 -> child () | pid -> pid)
        in
        List.iter
          (fun pid ->
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _ -> Alcotest.fail "lock contention child failed")
          pids;
        let ic = open_in counter in
        let v = int_of_string (input_line ic) in
        close_in ic;
        Alcotest.(check int) "no lost updates" (2 * rounds) v)

(* Two processes racing to store the same fingerprint while a third reads
   it: every read sees either a miss or one complete, valid outcome —
   never a torn entry. *)
let test_store_concurrent_writers_one_fingerprint () =
  if not Sys.unix then ()
  else
    with_temp_store (fun store ->
        let key = Job.fingerprint (tiny_job ()) in
        let outcome = Lazy.force stored_outcome in
        let writer () =
          for _ = 1 to 50 do
            Cache.store store key outcome
          done;
          Unix._exit 0
        in
        flush stdout;
        flush stderr;
        let pids =
          List.init 2 (fun _ -> match Unix.fork () with 0 -> writer () | pid -> pid)
        in
        for _ = 1 to 200 do
          match Cache.find store key with
          | None -> ()
          | Some got ->
              Alcotest.(check bool) "read is complete and valid" true (got = outcome)
        done;
        List.iter
          (fun pid ->
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _ -> Alcotest.fail "writer child failed")
          pids;
        Alcotest.(check bool) "entry present at the end" true
          (Cache.find store key = Some outcome))

(* ------------------------------------------------------------------ *)
(* End-to-end daemon                                                   *)
(* ------------------------------------------------------------------ *)

(* The write end of each live daemon's lifeline pipe, by daemon pid. Only
   this process holds it: every daemon child closes all of them. *)
let lifelines : (int, Unix.file_descr) Hashtbl.t = Hashtbl.create 4

(* Closing the write end makes the daemon's watcher SIGKILL its group, so
   this comes only once the daemon is gone. *)
let cut_lifeline pid =
  Option.iter
    (fun w ->
      Hashtbl.remove lifelines pid;
      Unix.close w)
    (Hashtbl.find_opt lifelines pid)

(* Without the graceful drain, a worker may be mid-job: kill the daemon's
   whole group, not just the daemon. *)
let kill_daemon pid =
  (try Unix.kill (-pid) Sys.sigkill with _ -> ());
  (try Unix.kill pid Sys.sigkill with _ -> ());
  ignore (try Unix.waitpid [] pid with _ -> (0, Unix.WEXITED 0));
  cut_lifeline pid

(* Fork a daemon that serves the store [dir]/cache on [sock], in a
   process group of its own (workers included, so a failed test can kill
   them all), and return its pid once it listens. The daemon dies with
   this process, however that ends: a watcher in its group blocks on the
   read end of a lifeline pipe, and when the last write end closes (the
   kernel closes it even after SIGKILL) it SIGKILLs the group. A
   [riq-sim serve] started from a shell outlives the shell; only this
   helper ties a daemon to its runner. *)
let spawn_daemon ~workers ~timeout ~dir ~sock =
  flush stdout;
  flush stderr;
  let lifeline, hold = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close hold;
      Hashtbl.iter (fun _ w -> Unix.close w) lifelines;
      ignore (Unix.setsid ());
      (match Unix.fork () with
      | 0 ->
          let rec await_eof () =
            match Unix.read lifeline (Bytes.create 1) 0 1 with
            | 0 -> ()
            | _ -> await_eof ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_eof ()
          in
          (try await_eof () with _ -> ());
          Unix.kill 0 Sys.sigkill;
          Unix._exit 0
      | _ -> Unix.close lifeline);
      (try
         (* One registry for the store and the daemon, as riq-sim serve
            has it, so store_* series are scraped too. *)
         let metrics = Riq_obs.Metrics.create () in
         let store = Cache.open_ ~root:(Filename.concat dir "cache") ~metrics () in
         Server.serve
           (Server.config ~workers ~timeout:(Some timeout) ~metrics
              ~address:(Protocol.Unix_socket sock) store)
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid -> (
      Unix.close lifeline;
      Hashtbl.replace lifelines pid hold;
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_sock () =
        if Sys.file_exists sock then ()
        else if Unix.gettimeofday () > deadline then Alcotest.fail "daemon did not come up"
        else begin
          ignore (Unix.select [] [] [] 0.02);
          wait_sock ()
        end
      in
      try
        wait_sock ();
        (* The socket file appears only once the daemon listens, so the
           first connect must succeed. *)
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close probe)
          (fun () ->
            try Unix.connect probe (Unix.ADDR_UNIX sock)
            with Unix.Unix_error (e, _, _) ->
              Alcotest.failf "socket file present but connect failed: %s"
                (Unix.error_message e));
        pid
      with e ->
        kill_daemon pid;
        raise e)

(* Graceful drain: SIGTERM, clean exit, socket unlinked. *)
let drain_daemon ~sock pid =
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  cut_lifeline pid;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.fail (Printf.sprintf "daemon exited with %d" n)
  | _ -> Alcotest.fail "daemon killed by signal");
  Alcotest.(check bool) "socket unlinked on drain" true (not (Sys.file_exists sock))

(* [prepare] gets the store root before the daemon opens it. *)
let with_daemon ?(workers = 1) ?(timeout = 60.) ?(prepare = ignore) f =
  if Sys.unix then
    with_temp_dir (fun dir ->
        let sock = Filename.concat dir "d.sock" in
        prepare (Filename.concat dir "cache");
        let pid = spawn_daemon ~workers ~timeout ~dir ~sock in
        let live = ref true in
        Fun.protect
          ~finally:(fun () -> if !live then kill_daemon pid)
          (fun () ->
            f ~sock ~pid;
            live := false;
            drain_daemon ~sock pid))

(* The store the daemon of [with_daemon] serves from, opened alongside. *)
let daemon_store sock = Cache.open_ ~root:(Filename.concat (Filename.dirname sock) "cache") ()

let e2e_jobs () =
  Array.of_list
    (List.init 6 (fun i -> tiny_job ~check:true ~cycle_limit:(20000 + i) ()))

let member_int path json =
  let rec go json = function
    | [] -> Json.to_int json
    | k :: rest -> ( match Json.member k json with None -> None | Some v -> go v rest)
  in
  match go json path with
  | Some v -> v
  | None -> Alcotest.fail ("missing counter " ^ String.concat "." path)

(* A counter or gauge of a metrics snapshot. *)
let metric ?(labels = []) snap name =
  let open Riq_obs.Metrics in
  match List.find_opt (fun s -> s.s_name = name && s.s_labels = labels) snap with
  | Some { s_value = Counter_sample v; _ } -> v
  | Some { s_value = Gauge_sample v; _ } -> int_of_float v
  | _ -> Alcotest.failf "no counter or gauge %s" name

let server_metric client name =
  match Client.server_metrics client with
  | Ok snap -> metric snap name
  | Error msg -> Alcotest.fail ("metrics op failed: " ^ msg)

let test_daemon_end_to_end () =
  with_daemon (fun ~sock ~pid:_ ->
      let jobs = e2e_jobs () in
      let expected = Array.map Runner.execute jobs in
      (* Cold client: everything executes server-side. *)
      let c1 = Client.connect ~request_timeout:30. (Protocol.Unix_socket sock) in
      let engine1 = Riq_exp.Engine.create ~backend:(Client.backend c1) () in
      let got = Riq_exp.Engine.run engine1 jobs in
      Array.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "job %d matches local execution" i)
            true
            (Riq_exp.Outcome.zero_timing o
            = Riq_exp.Outcome.zero_timing expected.(i)))
        got;
      let svc1 = Client.service_json c1 in
      Alcotest.(check int) "cold run executed everything" (Array.length jobs)
        (member_int [ "client"; "remote_executed" ] svc1);
      Alcotest.(check int) "cold run had no hits" 0
        (member_int [ "client"; "remote_hits" ] svc1);
      Client.close c1;
      (* Warm client: same jobs, 100% served from the shared store. *)
      let c2 = Client.connect ~request_timeout:30. (Protocol.Unix_socket sock) in
      let engine2 = Riq_exp.Engine.create ~backend:(Client.backend c2) () in
      let again = Riq_exp.Engine.run engine2 jobs in
      Alcotest.(check bool) "warm results identical" true
        (Array.map Riq_exp.Outcome.zero_timing again
        = Array.map Riq_exp.Outcome.zero_timing expected);
      let svc2 = Client.service_json c2 in
      Alcotest.(check int) "warm run is 100% hits" (Array.length jobs)
        (member_int [ "client"; "remote_hits" ] svc2);
      Alcotest.(check int) "warm run executed nothing" 0
        (member_int [ "client"; "remote_executed" ] svc2);
      (* The metrics op: the daemon-side counters agree, and the
         duration histograms saw every executed job (cold run) and every
         dispatch. *)
      (match Client.server_metrics c2 with
      | Error msg -> Alcotest.fail ("metrics op failed: " ^ msg)
      | Ok snap -> (
          Alcotest.(check int) "store hits = warm submits" (Array.length jobs)
            (metric ~labels:[ ("result", "hit") ] snap "store_reads_total");
          Alcotest.(check int) "serve_executed_total = cold submits" (Array.length jobs)
            (metric snap "serve_executed_total");
          Alcotest.(check int) "warm run supplied no job body" (Array.length jobs)
            (metric snap "serve_supplied_total");
          (* Only riq-cache evicts or takes the store's lock, and a daemon
             store hit is counted once, in store_reads_total. *)
          List.iter
            (fun name ->
              Alcotest.(check bool) ("snapshot has no " ^ name) false
                (List.exists (fun s -> s.Riq_obs.Metrics.s_name = name) snap))
            [ "store_hits_total"; "store_evictions_total"; "store_lock_wait_seconds" ];
          match
            List.find_opt (fun s -> s.Riq_obs.Metrics.s_name = "serve_simulate_seconds") snap
          with
          | Some { Riq_obs.Metrics.s_value = Histogram_sample { counts; _ }; _ } ->
              Alcotest.(check int) "simulate histogram counts executions"
                (Array.length jobs)
                (Array.fold_left ( + ) 0 counts)
          | _ -> Alcotest.fail "serve_simulate_seconds not a histogram"));
      (* The trace op: daemon + worker spans behind a stable cursor. *)
      (match Client.server_trace ~since:0 c2 with
      | Error msg -> Alcotest.fail ("trace op failed: " ^ msg)
      | Ok (events, next) ->
          Alcotest.(check bool) "trace has events" true (events <> []);
          Alcotest.(check int) "cursor accounts for every event"
            (List.length events) next;
          let named name j = Json.member "name" j = Some (Json.String name) in
          Alcotest.(check bool) "queue-wait spans present" true
            (List.exists (named "queue-wait") events);
          Alcotest.(check bool) "simulate spans present" true
            (List.exists (named "simulate") events);
          (* Each job span's fp arg is the 12-character prefix of a
             submitted job's fingerprint. *)
          let prefixes =
            Array.to_list (Array.map (fun j -> String.sub (Job.fingerprint j) 0 12) jobs)
          in
          List.iter
            (fun e ->
              if named "queue-wait" e || named "simulate" e then
                match Option.bind (Json.member "args" e) (Json.member "fp") with
                | Some (Json.String fp) when List.mem fp prefixes -> ()
                | _ -> Alcotest.failf "span fp is no submitted job's: %s" (Json.to_string e))
            events;
          (* Worker spans carry the worker pid, distinct from the daemon's. *)
          let pids =
            List.sort_uniq compare
              (List.filter_map
                 (fun j -> Option.bind (Json.member "pid" j) Json.to_int)
                 events)
          in
          Alcotest.(check bool) "two or more processes traced" true
            (List.length pids >= 2));
      Client.close c2)

(* A client outlives its daemon: once that daemon drains and another starts
   on the same socket, the client's next write meets its closed
   connection. That write fails with EPIPE instead of raising SIGPIPE, and
   the request is retried once, on a connection to the new daemon. *)
let test_client_survives_restart () =
  if Sys.unix then
    with_temp_dir (fun dir ->
        let sock = Filename.concat dir "d.sock" in
        let live = ref None in
        let start () = live := Some (spawn_daemon ~workers:1 ~timeout:60. ~dir ~sock) in
        let drain () =
          let pid = Option.get !live in
          live := None;
          drain_daemon ~sock pid
        in
        Fun.protect
          ~finally:(fun () -> Option.iter kill_daemon !live)
          (fun () ->
            start ();
            let metrics = Riq_obs.Metrics.create () in
            let client =
              Client.connect ~request_timeout:30. ~metrics (Protocol.Unix_socket sock)
            in
            let run jobs =
              Array.map Outcome.zero_timing
                (Engine.run (Engine.create ~backend:(Client.backend client) ()) jobs)
            in
            let jobs = e2e_jobs () in
            let expected = Array.map (fun j -> Outcome.zero_timing (Runner.execute j)) jobs in
            Alcotest.(check bool) "first daemon answers" true (run jobs = expected);
            drain ();
            start ();
            Alcotest.(check bool) "retried batch answered by the second daemon" true
              (run jobs = expected);
            Alcotest.(check int) "client_reconnects_total" 1
              (Riq_obs.Metrics.counter_value
                 (Riq_obs.Metrics.counter metrics "client_reconnects_total"));
            Alcotest.(check int) "service block reconnects" 1
              (member_int [ "client"; "reconnects" ] (Client.service_json client));
            Client.close client;
            drain ()))

(* A job past the daemon's budget is answered [Job_timeout], counted, and
   the daemon keeps serving on a fresh worker. *)
let test_daemon_timeout () =
  with_daemon ~timeout:0.5 (fun ~sock ~pid:_ ->
      let spin =
        Job.make ~cycle_limit:max_int Config.baseline
          (Parse.program_exn "loop:\n    j loop\n    halt\n")
      in
      let client = Client.connect ~request_timeout:30. (Protocol.Unix_socket sock) in
      let engine = Riq_exp.Engine.create ~backend:(Client.backend client) () in
      Alcotest.(check bool) "ticket answered Job_timeout" true
        ((Riq_exp.Engine.run engine [| spin |]).(0) = Error (Outcome.Job_timeout 0.5));
      Alcotest.(check int) "serve_timeouts_total" 1
        (server_metric client "serve_timeouts_total");
      let job = tiny_job () in
      Alcotest.(check bool) "next submit succeeds" true
        (Outcome.zero_timing (Riq_exp.Engine.run engine [| job |]).(0)
        = Outcome.zero_timing (Runner.execute job));
      Client.close client)

(* Queue wait is time spent waiting for a worker, not time the daemon
   spends hashing the supplied bodies. One worker, one batch: a tiny job
   first, then halt-only jobs whose 200k-word data images make each
   fingerprint slow (about 3 ms each). The daemon checks every body's
   fingerprint before it queues any, and the tiny job then goes to the
   idle worker at once, so its wait must be well under what
   fingerprinting the others costs (half of it, measured here in the
   test process, so host noise cannot blur the two). *)
let test_daemon_queue_wait_excludes_hashing () =
  with_daemon (fun ~sock ~pid:_ ->
      let tiny = tiny_job ~cycle_limit:30_000 () in
      let heavy =
        List.init 4 (fun i ->
            Job.make Config.baseline
              (Program.make
                 ~data:
                   [ Program.Words { base = 0x100000; values = Array.init 200_000 (( + ) i) } ]
                 [| Riq_isa.Insn.Halt |]))
      in
      let t0 = Unix.gettimeofday () in
      List.iter (fun j -> ignore (Job.fingerprint j)) heavy;
      let hashing = Unix.gettimeofday () -. t0 in
      let client = Client.connect ~request_timeout:30. (Protocol.Unix_socket sock) in
      let engine = Riq_exp.Engine.create ~backend:(Client.backend client) () in
      let out = Riq_exp.Engine.run engine (Array.of_list (tiny :: heavy)) in
      Alcotest.(check bool) "every job ran" true (Array.for_all Result.is_ok out);
      let tiny_fp = String.sub (Job.fingerprint tiny) 0 12 in
      (match Client.server_trace ~since:0 client with
      | Error msg -> Alcotest.fail ("trace op failed: " ^ msg)
      | Ok (events, _) -> (
          let is_tiny_wait e =
            Json.member "name" e = Some (Json.String "queue-wait")
            && Option.bind (Json.member "args" e) (Json.member "fp")
               = Some (Json.String tiny_fp)
          in
          match List.find_opt is_tiny_wait events with
          | None -> Alcotest.fail "no queue-wait span for the tiny job"
          | Some e ->
              let wait =
                float_of_int (Option.get (Option.bind (Json.member "dur" e) Json.to_int))
                /. 1e6
              in
              if not (wait < hashing /. 2.) then
                Alcotest.failf "tiny job waited %.4f s; fingerprinting the rest took %.4f s"
                  wait hashing));
      Client.close client)

(* ------------------------------------------------------------------ *)
(* Daemon faults, driven over raw connections                          *)
(* ------------------------------------------------------------------ *)

let hello =
  Protocol.Hello
    { revision = Revision.stamp; format = Revision.format_version; trace_id = None }

let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 15.;
  fd

(* One request's reply: its JSON and its payload. *)
let exchange fd req =
  Wire.write_all fd (request_frame req);
  Wire.recv fd

let rpc fd req = fst (exchange fd req)

let greeted sock =
  let fd = raw_connect sock in
  if not (Protocol.is_ok (rpc fd hello)) then Alcotest.fail "hello refused";
  fd

let close_quietly fd = try Unix.close fd with _ -> ()

(* An unlabelled counter or gauge of a [metrics] reply on a raw
   connection. *)
let scraped name reply =
  match Option.map Riq_obs.Metrics.snapshot_of_json (Json.member "metrics" reply) with
  | Some (Ok snap) -> metric snap name
  | _ -> Alcotest.failf "not a metrics reply: %s" (Json.to_string reply)

(* Raw bytes: a 4-byte big-endian length, then [payload]. *)
let raw_frame len payload =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.cat b (Bytes.of_string payload)

(* The daemon's answer to a fault: an error reply, or closing the
   connection. A reply that is ok, or no answer within SO_RCVTIMEO,
   fails the test. *)
let expect_refusal what fd =
  match Wire.recv fd with
  | reply, _ when Protocol.is_ok reply -> Alcotest.failf "%s: accepted" what
  | _ -> ()
  | exception (Wire.Closed | Unix.Unix_error (Unix.ECONNRESET, _, _)) -> ()
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
      Alcotest.failf "%s: neither a reply nor a close" what

let expect_closed what fd =
  match Wire.recv fd with
  | _ -> Alcotest.failf "%s: connection still open" what
  | exception (Wire.Closed | Unix.Unix_error (Unix.ECONNRESET, _, _)) -> ()
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
      Alcotest.failf "%s: connection not closed" what

(* Frame faults, each on its own connection, while a second client's
   sweep runs to the right answers. A stalled half frame is closed once
   it has gone [frame_stall_seconds] (5 s) without a byte. *)
let test_daemon_frame_faults () =
  with_daemon (fun ~sock ~pid:_ ->
      let stalled = greeted sock in
      Wire.write_all stalled (raw_frame 100 "{\"op\":");
      let json_fd = greeted sock in
      Wire.write_all json_fd (raw_frame 9 "{not json");
      expect_refusal "unparsable JSON" json_fd;
      Alcotest.(check bool) "connection survives bad JSON" true
        (Protocol.is_ok (rpc json_fd Protocol.Metrics));
      let typed_fd = greeted sock in
      List.iter
        (fun (what, fields) ->
          let payload = Json.to_string (Json.Obj (("op", Json.String "submit") :: fields)) in
          Wire.write_all typed_fd (raw_frame (String.length payload) payload);
          expect_refusal what typed_fd)
        [
          ("keys not a list", [ ("keys", Json.String "ab") ]);
          ("key not a string", [ ("keys", Json.List [ Json.Int 3 ]) ]);
          ("key not a fingerprint", [ ("keys", Json.List [ Json.String "../../x" ]) ]);
        ];
      List.iter
        (fun (what, len) ->
          let fd = raw_connect sock in
          Wire.write_all fd (raw_frame len "");
          expect_refusal what fd;
          expect_closed what fd;
          close_quietly fd)
        [ ("length above max_frame", Wire.max_frame + 1); ("negative length", -1) ];
      let eof_fd = greeted sock in
      Wire.write_all eof_fd (raw_frame 50 "{\"op\"");
      Unix.shutdown eof_fd Unix.SHUTDOWN_SEND;
      expect_closed "half frame then EOF" eof_fd;
      (* Meanwhile, a well-behaved client gets every answer right. *)
      let jobs = e2e_jobs () in
      let client = Client.connect ~request_timeout:30. (Protocol.Unix_socket sock) in
      let engine = Riq_exp.Engine.create ~backend:(Client.backend client) () in
      let got = Riq_exp.Engine.run engine jobs in
      Alcotest.(check bool) "second client's sweep is correct" true
        (Array.map Outcome.zero_timing got
        = Array.map (fun j -> Outcome.zero_timing (Runner.execute j)) jobs);
      expect_closed "stalled half frame" stalled;
      Alcotest.(check bool) "daemon still answers" true
        (Result.is_ok (Client.server_metrics client));
      Client.close client;
      List.iter close_quietly [ stalled; json_fd; typed_fd; eof_fd ])

(* Raw submit on a greeted connection: the ticket and its need list. *)
let submit_raw fd keys =
  let reply = rpc fd (Protocol.Submit { keys }) in
  if not (Protocol.is_ok reply) then Alcotest.fail "submit refused";
  ( member_int [ "ticket" ] reply,
    List.filter_map Json.to_int
      (Option.get (Option.bind (Json.member "need" reply) Json.to_list))
  )

let supply_frame ticket bodies =
  request_frame (Protocol.Supply { ticket; jobs = Protocol.jobs_to_wire bodies })

(* Misused supplies are refused whole, and the daemon keeps serving: the
   ticket they aimed at still completes on a supply of exactly the bodies
   its need listed, in that order. A body that fingerprints to another
   key is never run or stored. *)
let test_daemon_supply_misuse () =
  with_daemon (fun ~sock ~pid:_ ->
      let fd = greeted sock in
      let job_a = tiny_job ~cycle_limit:40_001 () in
      let job_b = tiny_job ~cycle_limit:40_002 () in
      let job_c = tiny_job ~cycle_limit:40_004 () in
      let key_a = Job.fingerprint job_a and key_b = Job.fingerprint job_b in
      let supply_reply ticket bodies =
        Wire.write_all fd (supply_frame ticket bodies);
        Wire.recv fd
      in
      let supply ticket bodies = fst (supply_reply ticket bodies) in
      let refused what reply =
        if Protocol.is_ok reply then Alcotest.failf "%s: accepted" what
      in
      let ticket, need = submit_raw fd [ key_a; key_b ] in
      Alcotest.(check (list int)) "both jobs needed" [ 0; 1 ] need;
      refused "unknown ticket" (supply (ticket + 100) [| job_a; job_b |]);
      refused "fewer bodies than needed" (supply ticket [| job_a |]);
      refused "more bodies than needed" (supply ticket [| job_a; job_b; job_c |]);
      refused "body of another job" (supply ticket [| job_a; job_c |]);
      refused "bodies swapped" (supply ticket [| job_b; job_a |]);
      refused "undecodable bodies"
        (fst (exchange fd (Protocol.Supply { ticket; jobs = "not marshalled" })));
      (* A ticket belongs to the connection that submitted it. *)
      let other = greeted sock in
      let reply =
        rpc other
          (Protocol.Supply { ticket; jobs = Protocol.jobs_to_wire [| job_a; job_b |] })
      in
      refused "another connection's ticket" reply;
      Alcotest.(check string) "refused as unknown" "unknown ticket" (Protocol.error_of reply);
      close_quietly other;
      let store = daemon_store sock in
      Alcotest.(check bool) "nothing stored" true
        (Cache.find store key_a = None && Cache.find store key_b = None);
      Alcotest.(check int) "no body accepted" 0
        (scraped "serve_supplied_total" (rpc fd Protocol.Metrics));
      (* The ticket still completes once its real bodies arrive, and the
         supply that completes it is answered with the outcomes. *)
      let reply, outcomes = supply_reply ticket [| job_a; job_b |] in
      Alcotest.(check bool) "right bodies accepted" true (Protocol.is_ok reply);
      Alcotest.(check bool) "ticket answered correctly" true
        (Array.map Outcome.zero_timing (Protocol.outcomes_of_wire (Option.get outcomes))
        = Array.map (fun j -> Outcome.zero_timing (Runner.execute j)) [| job_a; job_b |]);
      Alcotest.(check bool) "entries stored under their own keys" true
        (Cache.find store key_a <> None && Cache.find store key_b <> None);
      (* A stored job is answered at submit, so the need lists only the
         others, by their indices into the submit. *)
      let ticket2, need2 = submit_raw fd [ key_a; Job.fingerprint job_c ] in
      Alcotest.(check (list int)) "only the unexecuted job is needed" [ 1 ] need2;
      Alcotest.(check bool) "its supply carries that body alone" true
        (Protocol.is_ok (supply ticket2 [| job_c |]));
      close_quietly fd)

(* A job that never halts, so the daemon's per-job budget answers it. Its
   cycle limit still ends a worker that a failed test leaves behind. *)
let spin_job () =
  Job.make ~cycle_limit:100_000_000 Config.baseline
    (Parse.program_exn "loop:\n    j loop\n    halt\n")

(* A ticket belongs to its connection: closing the connection frees it,
   whether or not its bodies ever arrived. *)
let test_daemon_abandoned_tickets () =
  with_daemon (fun ~sock ~pid:_ ->
      for i = 1 to 5 do
        let fd = greeted sock in
        ignore (submit_raw fd [ Printf.sprintf "%032x" i ]);
        close_quietly fd
      done;
      let fd = greeted sock in
      Alcotest.(check int) "no ticket left open" 0
        (scraped "serve_tickets_open" (rpc fd Protocol.Metrics));
      close_quietly fd)

(* A batch is one exchange: a cold one a submit and a supply, a warm one
   a submit. The reply that carries the outcomes may wait on simulations
   past [request_timeout]; the daemon's per-job budget bounds it. *)
let test_daemon_requests_per_batch () =
  with_daemon ~timeout:1.5 (fun ~sock ~pid:_ ->
      let metrics = Riq_obs.Metrics.create () in
      let requests () =
        Riq_obs.Metrics.counter_value
          (Riq_obs.Metrics.counter metrics "client_requests_total")
      in
      let client =
        Client.connect ~request_timeout:0.5 ~metrics (Protocol.Unix_socket sock)
      in
      let run jobs =
        Riq_exp.Engine.run (Riq_exp.Engine.create ~backend:(Client.backend client) ()) jobs
      in
      let jobs = e2e_jobs () in
      let expected = Array.map (fun j -> Outcome.zero_timing (Runner.execute j)) jobs in
      Alcotest.(check bool) "cold batch answered" true
        (Array.map Outcome.zero_timing (run jobs) = expected);
      Alcotest.(check int) "cold batch: submit and supply" 2 (requests ());
      Alcotest.(check bool) "warm batch answered" true
        (Array.map Outcome.zero_timing (run jobs) = expected);
      Alcotest.(check int) "warm batch: submit" 3 (requests ());
      Alcotest.(check bool) "held past request_timeout, answered Job_timeout" true
        ((run [| spin_job () |]).(0) = Error (Outcome.Job_timeout 1.5));
      Client.close client)

(* Replies stay in request order: a metrics request pipelined behind a
   held supply is answered after the outcomes. A drain that starts while the reply
   is held still sends it. *)
let test_daemon_held_reply_order () =
  with_daemon ~timeout:1. (fun ~sock ~pid ->
      let fd = greeted sock in
      let spin = spin_job () in
      let ticket, _ = submit_raw fd [ Job.fingerprint spin ] in
      Wire.write_all fd
        (Bytes.cat (supply_frame ticket [| spin |]) (request_frame Protocol.Metrics));
      let probe = greeted sock in
      let rec await_running () =
        let scrape = rpc probe Protocol.Metrics in
        if scraped "serve_inflight" scrape = 0 then begin
          if scraped "serve_executed_total" scrape > 0 then
            Alcotest.fail "job ended before the drain";
          ignore (Unix.select [] [] [] 0.01);
          await_running ()
        end
      in
      await_running ();
      close_quietly probe;
      Unix.kill pid Sys.sigterm;
      let _, outcomes = Wire.recv fd in
      Alcotest.(check bool) "held reply sent during the drain" true
        (Option.map Protocol.outcomes_of_wire outcomes
        = Some [| Error (Outcome.Job_timeout 1.) |]);
      Alcotest.(check bool) "then the pipelined metrics" true
        (Json.member "metrics" (fst (Wire.recv fd)) <> None);
      close_quietly fd)

(* A store whose 256 shard directories are regular files cannot take a
   single entry (permission bits would not stop root). The daemon still
   answers every job, reports no write, and runs a repeat again rather
   than claiming a hit. *)
let test_daemon_unwritable_store () =
  let block_shards root =
    let store = Cache.open_ ~root () in
    let dir = Filename.dirname (Filename.dirname (Cache.path store (String.make 32 '0'))) in
    for i = 0 to 255 do
      Out_channel.with_open_bin (Filename.concat dir (Printf.sprintf "%02x" i)) ignore
    done
  in
  with_daemon ~prepare:block_shards (fun ~sock ~pid:_ ->
      let jobs = e2e_jobs () in
      let expected = Array.map (fun j -> Outcome.zero_timing (Runner.execute j)) jobs in
      let client = Client.connect ~request_timeout:30. (Protocol.Unix_socket sock) in
      for pass = 1 to 2 do
        let engine = Riq_exp.Engine.create ~backend:(Client.backend client) () in
        Alcotest.(check bool)
          (Printf.sprintf "pass %d answered correctly" pass)
          true
          (Array.map Outcome.zero_timing (Riq_exp.Engine.run engine jobs) = expected)
      done;
      let svc = Client.service_json client in
      Alcotest.(check int) "both passes executed" (2 * Array.length jobs)
        (member_int [ "client"; "remote_executed" ] svc);
      Alcotest.(check int) "no hits" 0 (member_int [ "client"; "remote_hits" ] svc);
      Alcotest.(check int) "store_writes_total" 0 (server_metric client "store_writes_total");
      Client.close client)

(* The protocol has no stats op: a stats frame is refused as an unknown
   op, and the same connection goes on to answer metrics. *)
let test_daemon_stats_op_gone () =
  with_daemon (fun ~sock ~pid:_ ->
      let fd = greeted sock in
      let payload = Json.to_string (Json.Obj [ ("op", Json.String "stats") ]) in
      Wire.write_all fd (raw_frame (String.length payload) payload);
      let reply = fst (Wire.recv fd) in
      Alcotest.(check bool) "stats refused" false (Protocol.is_ok reply);
      Alcotest.(check string) "as an unknown op" {|unknown op "stats"|}
        (Protocol.error_of reply);
      Alcotest.(check bool) "metrics answered on the same connection" true
        (Json.member "metrics" (rpc fd Protocol.Metrics) <> None);
      close_quietly fd)

(* A riq-serve/5 client still gets a frame it can parse, refusing it by
   name at its hello. *)
let test_daemon_old_hello () =
  with_daemon (fun ~sock ~pid:_ ->
      let fd = raw_connect sock in
      Wire.send fd
        (Json.Obj
           [
             ("op", Json.String "hello");
             ("protocol", Json.String "riq-serve/5");
             ("revision", Json.String Revision.stamp);
             ("format", Json.Int Revision.format_version);
           ]);
      Alcotest.(check string) "protocol mismatch"
        "protocol mismatch: daemon riq-serve/6, client riq-serve/5"
        (Protocol.error_of (fst (Wire.recv fd)));
      close_quietly fd)

(* One frame of 8 MB of '[' is refused at the JSON parser's depth cap,
   without stalling the loop: another connection's metrics request is
   answered within a second, the sender gets an error reply, and its
   connection goes on answering. *)
let test_daemon_deep_frame () =
  with_daemon (fun ~sock ~pid:_ ->
      let deep = greeted sock in
      let probe = greeted sock in
      let n = 8 * 1024 * 1024 in
      Wire.write_all deep (raw_frame n (String.make n '['));
      ignore (Unix.select [] [] [] 0.1);
      let t0 = Unix.gettimeofday () in
      Alcotest.(check bool) "metrics answered" true
        (Json.member "metrics" (rpc probe Protocol.Metrics) <> None);
      let waited = Unix.gettimeofday () -. t0 in
      if waited > 1. then Alcotest.failf "metrics answered after %.1f s" waited;
      Alcotest.(check bool) "deep frame refused" false (Protocol.is_ok (fst (Wire.recv deep)));
      Alcotest.(check bool) "its connection still answers" true
        (Protocol.is_ok (rpc deep Protocol.Metrics));
      List.iter close_quietly [ deep; probe ])

(* A supply dribbled one byte per write arrives in reads that split its
   header, its JSON, the 0x00 and its payload; it is answered as if it
   came whole. *)
let test_daemon_byte_reads () =
  with_daemon (fun ~sock ~pid:_ ->
      let fd = greeted sock in
      let job = tiny_job ~cycle_limit:40_003 () in
      let ticket, _ = submit_raw fd [ Job.fingerprint job ] in
      let frame = supply_frame ticket [| job |] in
      Bytes.iter
        (fun c ->
          Wire.write_all fd (Bytes.make 1 c);
          ignore (Unix.select [] [] [] 0.0002))
        frame;
      let reply, outcomes = Wire.recv fd in
      Alcotest.(check bool) "supply accepted" true (Protocol.is_ok reply);
      Alcotest.(check bool) "answered correctly" true
        (Option.map
           (fun p -> Array.map Outcome.zero_timing (Protocol.outcomes_of_wire p))
           outcomes
        = Some [| Outcome.zero_timing (Runner.execute job) |]);
      close_quietly fd)

(* Frames do not line up with reads: two requests in one write, then one
   request dribbled over several writes. Every request gets its answer. *)
let test_daemon_split_frames () =
  with_daemon (fun ~sock ~pid:_ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX sock);
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
          Wire.write_all fd (Bytes.cat (request_frame hello) (request_frame Protocol.Metrics));
          let metrics = request_frame Protocol.Metrics in
          let n = Bytes.length metrics in
          List.iter
            (fun (off, len) ->
              Wire.write_all fd (Bytes.sub metrics off len);
              ignore (Unix.select [] [] [] 0.05))
            [ (0, 2); (2, 3); (5, n - 5) ];
          Alcotest.(check bool) "hello answered" true (Protocol.is_ok (fst (Wire.recv fd)));
          for i = 1 to 2 do
            Alcotest.(check bool)
              (Printf.sprintf "metrics %d answered" i)
              true
              (Json.member "metrics" (fst (Wire.recv fd)) <> None)
          done))

(* The [fp] args of the daemon's [simulate] spans, in recorded order. *)
let simulated_fps events =
  List.filter_map
    (fun e ->
      if Json.member "name" e <> Some (Json.String "simulate") then None
      else
        Option.bind (Json.member "args" e) (fun a ->
            Option.bind (Json.member "fp" a) Json.to_str))
    events

let fp_prefix job = String.sub (Job.fingerprint job) 0 12

(* One queue, first in first out: on a 1-worker daemon whose worker is
   busy, the jobs of three connections run in the order they were queued,
   each connection's in its need order. *)
let test_daemon_arrival_order () =
  with_daemon ~timeout:1. (fun ~sock ~pid:_ ->
      let spin = spin_job () in
      let job i = tiny_job ~cycle_limit:(50_000 + i) () in
      let batches = [ [| spin; job 1 |]; [| job 2; job 3 |]; [| job 4 |] ] in
      let fds =
        List.map
          (fun bodies ->
            let fd = greeted sock in
            let ticket, _ = submit_raw fd (Array.to_list (Array.map Job.fingerprint bodies)) in
            Wire.write_all fd (supply_frame ticket bodies);
            fd)
          batches
      in
      List.iter
        (fun fd ->
          let reply, _ = Wire.recv fd in
          if not (Protocol.is_ok reply) then Alcotest.fail "supply refused";
          close_quietly fd)
        fds;
      let fd = greeted sock in
      let trace = rpc fd (Protocol.Trace { since = 0 }) in
      let events = Option.get (Option.bind (Json.member "events" trace) Json.to_list) in
      Alcotest.(check (list string)) "simulated in arrival order"
        (List.map fp_prefix (List.concat_map Array.to_list batches))
        (simulated_fps events);
      close_quietly fd)

(* Client and daemon share the host's clock, so the client returns the
   daemon's trace events exactly as a raw [trace] request does. *)
let test_daemon_trace_unshifted () =
  with_daemon (fun ~sock ~pid:_ ->
      let client = Client.connect ~request_timeout:30. (Protocol.Unix_socket sock) in
      let engine = Riq_exp.Engine.create ~backend:(Client.backend client) () in
      ignore (Riq_exp.Engine.run engine (e2e_jobs ()));
      let fd = greeted sock in
      let raw = rpc fd (Protocol.Trace { since = 0 }) in
      (match Client.server_trace ~since:0 client with
      | Error msg -> Alcotest.fail ("trace op failed: " ^ msg)
      | Ok (events, next) ->
          Alcotest.(check string) "the daemon's events, as recorded"
            (Json.to_string (Option.get (Json.member "events" raw)))
            (Json.to_string (Json.List events));
          Alcotest.(check int) "the same cursor" (member_int [ "next" ] raw) next);
      close_quietly fd;
      Client.close client)

(* A peer that pipelines requests and never reads its replies fills its
   socket and stops taking them. Its unsent reply waits without blocking
   the loop, so another connection's request is answered within 1 s.
   While it stays silent, the daemon closes it once that reply has made
   no progress for 5 s (the probe sees [serve_connections] fall to 1);
   it then reads its buffered replies and a close. *)
let test_daemon_silent_peer () =
  with_daemon (fun ~sock ~pid:_ ->
      let probe = greeted sock in
      let silent = greeted sock in
      let metrics = request_frame Protocol.Metrics in
      let frames = Bytes.concat Bytes.empty (List.init 20_000 (fun _ -> metrics)) in
      (* Send what the socket takes; the rest would block. *)
      Unix.set_nonblock silent;
      let rec push off =
        if off < Bytes.length frames then
          match Unix.write silent frames off (Bytes.length frames - off) with
          | n -> push (off + n)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      in
      push 0;
      Unix.clear_nonblock silent;
      let t0 = Unix.gettimeofday () in
      Alcotest.(check bool) "probe answered" true
        (Json.member "metrics" (rpc probe Protocol.Metrics) <> None);
      let waited = Unix.gettimeofday () -. t0 in
      if waited > 1. then Alcotest.failf "metrics answered after %.1f s" waited;
      let rec await_close () =
        if scraped "serve_connections" (rpc probe Protocol.Metrics) > 1 then begin
          if Unix.gettimeofday () -. t0 > 10. then
            Alcotest.fail "silent connection still open after 10 s";
          ignore (Unix.select [] [] [] 0.1);
          await_close ()
        end
      in
      await_close ();
      (* The silent connection's buffered replies, then its close. *)
      let rec drain () =
        match Wire.recv silent with
        | _ -> drain ()
        | exception (Wire.Closed | Unix.Unix_error (Unix.ECONNRESET, _, _)) -> ()
        | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
            Alcotest.fail "silent connection not closed"
      in
      drain ();
      List.iter close_quietly [ probe; silent ])

(* ------------------------------------------------------------------ *)
(* The sweep export survives its own parser                            *)
(* ------------------------------------------------------------------ *)

let test_sweep_json_parses () =
  let open Riq_harness in
  let bench = [ Riq_workloads.Workloads.find "tsf" ] in
  let engine = Riq_exp.Engine.create () in
  let sweep = Sweep.run ~engine ~sizes:[ 32 ] ~benchmarks:bench ~check:false () in
  let doc = Sweep.to_json ~engine sweep in
  let text = Json.to_string ~indent:true doc in
  let parsed = Json.of_string_exn text in
  (* Byte-level fixpoint: emit, parse, emit again — identical text. *)
  Alcotest.(check string) "emit/parse/emit fixpoint" text
    (Json.to_string ~indent:true parsed);
  Alcotest.(check bool) "schema field readable" true
    (Json.member "schema" parsed = Some (Json.String "riq-sweep/3"));
  Alcotest.(check int) "engine jobs counter readable" 2
    (member_int [ "engine"; "jobs" ] parsed)

(* A process is gone once [kill pid 0] fails, or, where /proc exists, once
   it is a zombie: an orphan is reaped by whichever process adopts it, and
   that need not be prompt. *)
let process_gone pid =
  match Unix.kill pid 0 with
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
  | () -> (
      let path = Printf.sprintf "/proc/%d/stat" pid in
      match In_channel.with_open_text path In_channel.input_all with
      | stat -> (
          match String.rindex_opt stat ')' with
          | Some i -> i + 2 < String.length stat && stat.[i + 2] = 'Z'
          | None -> false)
      | exception Sys_error _ -> false)

(* A runner that dies without unwinding takes its daemon with it: a forked
   stand-in runner spawns one through the helper, reports its pid and is
   SIGKILLed, so no [finally] runs. The daemon must be gone within 10 s;
   whatever is left is killed before the test fails. *)
let test_daemon_dies_with_runner () =
  if Sys.unix then
    with_temp_dir (fun dir ->
        let sock = Filename.concat dir "d.sock" in
        let r, w = Unix.pipe () in
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
            Unix.close r;
            (try
               let pid = spawn_daemon ~workers:1 ~timeout:60. ~dir ~sock in
               let line = string_of_int pid ^ "\n" in
               ignore (Unix.write_substring w line 0 (String.length line));
               ignore (Unix.select [] [] [] 60.)
             with _ -> ());
            Unix._exit 1
        | runner ->
            Unix.close w;
            (* One line, not EOF: the daemon inherits the write end. *)
            let ic = Unix.in_channel_of_descr r in
            let daemon = Option.bind (In_channel.input_line ic) int_of_string_opt in
            close_in ic;
            Unix.kill runner Sys.sigkill;
            ignore (Unix.waitpid [] runner);
            let daemon =
              match daemon with
              | Some pid -> pid
              | None -> Alcotest.fail "the stand-in runner started no daemon"
            in
            let deadline = Unix.gettimeofday () +. 10. in
            let rec await () =
              if process_gone daemon then true
              else if Unix.gettimeofday () > deadline then false
              else begin
                ignore (Unix.select [] [] [] 0.05);
                await ()
              end
            in
            if not (await ()) then begin
              (try Unix.kill (-daemon) Sys.sigkill with _ -> ());
              (try Unix.kill daemon Sys.sigkill with _ -> ());
              Alcotest.fail "the daemon outlived its SIGKILLed runner by 10 s"
            end)

let suites =
  [
    ( "svc-wire",
      [
        Alcotest.test_case "frame round trip" `Quick test_frame_round_trip;
        Alcotest.test_case "payload frame round trip" `Quick test_payload_frame_round_trip;
        Alcotest.test_case "oversized frame rejected" `Quick test_frame_rejects_oversized;
        Alcotest.test_case "eof raises Closed" `Quick test_frame_eof_is_closed;
        Alcotest.test_case "request round trip" `Quick test_request_round_trip;
        Alcotest.test_case "job/outcome round trip" `Quick test_job_outcome_wire;
        Alcotest.test_case "address parsing" `Quick test_address_parsing;
        Alcotest.test_case "paper sweep supply frame size" `Quick test_supply_frame_size;
        Alcotest.test_case "pipelined frames drain in linear time" `Quick test_drain_is_linear;
      ] );
    ( "svc-store",
      [
        Alcotest.test_case "round trip" `Quick test_store_round_trip;
        Alcotest.test_case "find refreshes recency" `Quick test_store_find_touches;
        Alcotest.test_case "lru eviction respects budget" `Quick
          test_store_eviction_respects_budget;
        Alcotest.test_case "gc respects cutoff" `Quick test_store_gc_respects_cutoff;
        Alcotest.test_case "negative bounds refused" `Quick
          test_store_negative_bounds_refused;
        Alcotest.test_case "SIGKILLed holder does not wedge the next" `Quick
          test_store_lock_holder_killed;
        Alcotest.test_case "cross-process lock contention" `Quick
          test_store_lock_contention;
        Alcotest.test_case "concurrent writers, one fingerprint" `Quick
          test_store_concurrent_writers_one_fingerprint;
      ] );
    ( "svc-daemon",
      [
        Alcotest.test_case "end to end, warm repeat 100% hits" `Slow
          test_daemon_end_to_end;
        Alcotest.test_case "two connections run in arrival order" `Slow
          test_daemon_arrival_order;
        Alcotest.test_case "job past budget times out" `Slow test_daemon_timeout;
        Alcotest.test_case "queue wait excludes submit hashing" `Slow
          test_daemon_queue_wait_excludes_hashing;
        Alcotest.test_case "frames split across reads" `Slow test_daemon_split_frames;
        Alcotest.test_case "supply in 1-byte reads" `Slow test_daemon_byte_reads;
        Alcotest.test_case "8 MB of [ refused, loop not stalled" `Slow test_daemon_deep_frame;
        Alcotest.test_case "riq-serve/5 hello refused" `Slow test_daemon_old_hello;
        Alcotest.test_case "malformed and stalled frames" `Slow test_daemon_frame_faults;
        Alcotest.test_case "misused supplies refused" `Slow test_daemon_supply_misuse;
        Alcotest.test_case "abandoned tickets freed" `Slow test_daemon_abandoned_tickets;
        Alcotest.test_case "requests per batch" `Slow test_daemon_requests_per_batch;
        Alcotest.test_case "held reply keeps order, drain sends it" `Slow
          test_daemon_held_reply_order;
        Alcotest.test_case "unwritable store writes nothing" `Slow
          test_daemon_unwritable_store;
        Alcotest.test_case "stats op refused" `Slow test_daemon_stats_op_gone;
        Alcotest.test_case "sweep json parses" `Slow test_sweep_json_parses;
        Alcotest.test_case "client trace is the daemon's, unshifted" `Slow
          test_daemon_trace_unshifted;
        Alcotest.test_case "silent peer closed, loop not blocked" `Slow
          test_daemon_silent_peer;
        Alcotest.test_case "client survives a daemon restart" `Slow
          test_client_survives_restart;
        Alcotest.test_case "daemon dies with its SIGKILLed runner" `Slow
          test_daemon_dies_with_runner;
      ] );
  ]

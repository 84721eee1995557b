(* Resident forked simulation workers.

   The parent keeps, per worker, its pid, the write end of its request
   pipe, the read end of its result pipe and the job it is running. A
   job travels to the worker as one frame (4-byte big-endian length +
   marshalled Job.t) and comes back as one frame holding
   (seconds, outcome). The caller owns the select loop: it selects on
   [fds] with [deadline] as the timeout and hands what became readable to
   [collect], which also enforces the per-job budget.

   Failure policy. A worker is dead when its result pipe reads EOF or a
   frame that does not decode (a failed dispatch write SIGKILLs the
   worker, so EPIPE ends up there too). Its job is rerun once on a fresh
   worker, then reported as [Worker_crashed]. A job past its budget has
   its worker SIGKILLed and is reported as [Job_timeout]. *)

module Log = Riq_obs.Log

let rec restart_on_intr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_intr f

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off < n then begin
      let r = restart_on_intr (fun () -> Unix.read fd b off (n - off)) in
      if r = 0 then raise End_of_file;
      go (off + r)
    end
  in
  go 0;
  b

let write_all fd b =
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + restart_on_intr (fun () -> Unix.write fd b off (n - off)))
  in
  go 0

let close_noerr fd = try Unix.close fd with _ -> ()

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let max_frame = 1 lsl 30

let write_frame fd v =
  let payload = Marshal.to_bytes v [] in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Bytes.length payload));
  write_all fd hdr;
  write_all fd payload

(* Both ends run the same binary, so the payload's type is the one the
   other side wrote; callers annotate it. *)
let read_frame fd =
  let len = Int32.to_int (Bytes.get_int32_be (read_exact fd 4) 0) in
  if len <= 0 || len > max_frame then failwith "bad frame length";
  Marshal.from_bytes (read_exact fd len) 0

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

(* EOF on the request pipe is the parent shutting the pool down. *)
let worker_main req res =
  let rec loop () =
    match (read_frame req : Job.t) with
    | exception _ -> ()
    | job ->
        let t0 = Unix.gettimeofday () in
        let outcome : Outcome.t = Runner.execute_safe job in
        write_frame res (Unix.gettimeofday () -. t0, outcome);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)
(* ------------------------------------------------------------------ *)

type 'k slot = { s_key : 'k; s_job : Job.t; s_started : float; s_retried : bool }

type 'k worker = {
  w_pid : int;
  w_req : Unix.file_descr;
  w_res : Unix.file_descr;
  mutable w_slot : 'k slot option;
}

type 'k t = {
  size : int;
  timeout : float option;
  in_child : unit -> unit;
  on_spawn : int -> unit;
  mutable live : 'k worker list;
  mutable n_retries : int;
  mutable n_timeouts : int;
  mutable old_sigpipe : Sys.signal_behavior option;
}

type 'k finished = {
  key : 'k;
  outcome : Outcome.t;
  seconds : float;
  pid : int;
  started : float;
}

let create ?(in_child = ignore) ?(on_spawn = ignore) ~workers ~timeout () =
  if workers < 1 then invalid_arg "Workers.create: workers must be >= 1";
  {
    size = workers;
    timeout;
    in_child;
    on_spawn;
    live = [];
    n_retries = 0;
    n_timeouts = 0;
    old_sigpipe = (try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with _ -> None);
  }

let busy t = List.length (List.filter (fun w -> Option.is_some w.w_slot) t.live)
let idle t = t.size - busy t
let pids t = List.map (fun w -> w.w_pid) t.live
let retries t = t.n_retries
let timeouts t = t.n_timeouts

let fds t =
  List.filter_map (fun w -> if Option.is_none w.w_slot then None else Some w.w_res) t.live

let deadline t =
  match t.timeout with
  | None -> None
  | Some budget ->
      let now = Unix.gettimeofday () in
      List.fold_left
        (fun acc w ->
          match w.w_slot with
          | None -> acc
          | Some s ->
              let left = Float.max 0. (budget -. (now -. s.s_started)) in
              Some (match acc with None -> left | Some a -> Float.min a left))
        None t.live

let spawn t =
  let req_r, req_w = Unix.pipe () in
  let res_r, res_w =
    try Unix.pipe ()
    with e ->
      List.iter close_noerr [ req_r; req_w ];
      raise e
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | exception e ->
      List.iter close_noerr [ req_r; req_w; res_r; res_w ];
      raise e
  | 0 ->
      Unix.close req_w;
      Unix.close res_r;
      (* The parent-side ends of every sibling's pipes: a sibling's death
         must read as EOF in the parent, not stay open in here. *)
      List.iter
        (fun w ->
          close_noerr w.w_req;
          close_noerr w.w_res)
        t.live;
      (try
         t.in_child ();
         worker_main req_r res_w
       with _ -> ());
      (* _exit: do not run the parent's at_exit handlers or flush its
         channels a second time. *)
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close res_w;
      let w = { w_pid = pid; w_req = req_w; w_res = res_r; w_slot = None } in
      t.live <- w :: t.live;
      t.on_spawn pid;
      w

let reap t ~kill w =
  if kill then (try Unix.kill w.w_pid Sys.sigkill with _ -> ());
  close_noerr w.w_req;
  close_noerr w.w_res;
  (try ignore (restart_on_intr (fun () -> Unix.waitpid [] w.w_pid)) with _ -> ());
  t.live <- List.filter (fun w' -> w' != w) t.live

(* A worker that cannot take the whole job is made certainly dead; its
   result pipe then reads EOF and [collect] handles the death. *)
let dispatch w slot =
  w.w_slot <- Some slot;
  try write_frame w.w_req slot.s_job
  with Unix.Unix_error _ -> ( try Unix.kill w.w_pid Sys.sigkill with _ -> ())

let submit t key job =
  if idle t <= 0 then invalid_arg "Workers.submit: no idle worker";
  let w =
    match List.find_opt (fun w -> Option.is_none w.w_slot) t.live with
    | Some w -> w
    | None -> spawn t
  in
  dispatch w
    { s_key = key; s_job = job; s_started = Unix.gettimeofday (); s_retried = false }

let collect t readable =
  let finished = ref [] in
  let finish w slot ~seconds outcome =
    finished :=
      { key = slot.s_key; outcome; seconds; pid = w.w_pid; started = slot.s_started }
      :: !finished
  in
  List.iter
    (fun w ->
      match w.w_slot with
      | Some slot when List.mem w.w_res readable -> (
          match (read_frame w.w_res : float * Outcome.t) with
          | seconds, outcome ->
              w.w_slot <- None;
              finish w slot ~seconds outcome
          | exception _ ->
              reap t ~kill:true w;
              let now = Unix.gettimeofday () in
              if slot.s_retried then
                finish w slot ~seconds:(now -. slot.s_started)
                  (Error (Outcome.Worker_crashed "worker process died mid-job"))
              else begin
                t.n_retries <- t.n_retries + 1;
                Log.warn ~scope:"workers"
                  ~kv:[ ("pid", Log.int w.w_pid) ]
                  "worker died mid-job, retrying";
                dispatch (spawn t) { slot with s_started = now; s_retried = true }
              end)
      | _ -> ())
    t.live;
  (match t.timeout with
  | None -> ()
  | Some budget ->
      let now = Unix.gettimeofday () in
      List.iter
        (fun w ->
          match w.w_slot with
          | Some slot when now -. slot.s_started >= budget ->
              reap t ~kill:true w;
              t.n_timeouts <- t.n_timeouts + 1;
              Log.warn ~scope:"workers"
                ~kv:[ ("pid", Log.int w.w_pid); ("budget", Log.float budget) ]
                "job exceeded wall-clock budget, killed its worker";
              finish w slot ~seconds:(now -. slot.s_started)
                (Error (Outcome.Job_timeout budget))
          | _ -> ())
        t.live);
  List.rev !finished

let shutdown t =
  List.iter (fun w -> reap t ~kill:(Option.is_some w.w_slot) w) t.live;
  match t.old_sigpipe with
  | Some b ->
      t.old_sigpipe <- None;
      ( try Sys.set_signal Sys.sigpipe b with _ -> ())
  | None -> ()

type progress = {
  total : int;
  finished : int;
  cache_hits : int;
  deduped : int;
  executed : int;
  failures : int;
  workers : int;
}

type stats = {
  jobs : int;
  cache_hits : int;
  deduped : int;
  executed : int;
  failures : int;
  retries : int;
  timeouts : int;
  wall_seconds : float;
  busy_seconds : float;
}

type t = {
  backend : Backend.t;
  timeout : float option;
  cache : Cache.t option;
  on_progress : (progress -> unit) option;
  mutable s_jobs : int;
  mutable s_hits : int;
  mutable s_dedup : int;
  mutable s_exec : int;
  mutable s_fail : int;
  mutable s_retries : int;
  mutable s_timeouts : int;
  mutable s_wall : float;
  mutable s_busy : float;
  mutable s_job_secs : float list; (* per executed job, unordered *)
}

let create ?(workers = 1) ?backend ?cache ?(timeout = 600.) ?on_progress () =
  if workers < 1 then invalid_arg "Engine.create: workers must be >= 1";
  let timeout = if timeout <= 0. then None else Some timeout in
  let backend =
    match backend with Some b -> b | None -> Backend.default ~workers
  in
  {
    backend;
    timeout;
    cache;
    on_progress;
    s_jobs = 0;
    s_hits = 0;
    s_dedup = 0;
    s_exec = 0;
    s_fail = 0;
    s_retries = 0;
    s_timeouts = 0;
    s_wall = 0.;
    s_busy = 0.;
    s_job_secs = [];
  }

let workers t = t.backend.Backend.parallelism
let backend_name t = t.backend.Backend.name
let telemetry t = t.backend.Backend.telemetry ()

let stats t =
  {
    jobs = t.s_jobs;
    cache_hits = t.s_hits;
    deduped = t.s_dedup;
    executed = t.s_exec;
    failures = t.s_fail;
    retries = t.s_retries;
    timeouts = t.s_timeouts;
    wall_seconds = t.s_wall;
    busy_seconds = t.s_busy;
  }

let job_seconds t = Array.of_list t.s_job_secs

let utilization t =
  if t.s_wall <= 0. then 0.
  else min 1. (t.s_busy /. (t.s_wall *. float_of_int (workers t)))

let run t (jobs : Job.t array) : Outcome.t array =
  let n = Array.length jobs in
  if n = 0 then [||]
  else begin
    let t0 = Unix.gettimeofday () in
    let out : Outcome.t option array = Array.make n None in
    let finished = ref 0 and hits = ref 0 and executed = ref 0 and failures = ref 0 in
    let deduped = ref 0 in
    let emit () =
      match t.on_progress with
      | None -> ()
      | Some f ->
          f
            {
              total = n;
              finished = !finished;
              cache_hits = !hits;
              deduped = !deduped;
              executed = !executed;
              failures = !failures;
              workers = workers t;
            }
    in
    (* Identical jobs inside one batch (the ablations re-request many sweep
       cells) collapse onto one representative execution. These keys are
       the batch's only hashing: the backend gets them too. *)
    let fps = Job.fingerprints jobs in
    let rep = Hashtbl.create (2 * n) in
    let uniques = ref [] in
    let duplicates = ref [] in
    Array.iteri
      (fun i fp ->
        match Hashtbl.find_opt rep fp with
        | Some j -> duplicates := (i, j) :: !duplicates
        | None ->
            Hashtbl.add rep fp i;
            uniques := i :: !uniques)
      fps;
    let uniques = List.rev !uniques in
    let record i outcome =
      out.(i) <- Some outcome;
      incr finished;
      (match outcome with
      | Error e -> (
          incr failures;
          match e with
          | Outcome.Job_timeout _ -> t.s_timeouts <- t.s_timeouts + 1
          | _ -> ())
      | Ok _ -> ());
      emit ()
    in
    (* Warm entries first. *)
    let misses =
      List.filter
        (fun i ->
          match t.cache with
          | None -> true
          | Some c -> (
              match Cache.find c fps.(i) with
              | Some outcome ->
                  incr hits;
                  record i outcome;
                  false
              | None -> true))
        uniques
    in
    let complete i ~seconds outcome =
      (match t.cache with Some c -> Cache.store c fps.(i) outcome | None -> ());
      incr executed;
      if seconds > 0. then t.s_job_secs <- seconds :: t.s_job_secs;
      record i outcome
    in
    (if misses <> [] then begin
       let s =
         t.backend.Backend.execute ~timeout:t.timeout ~jobs ~keys:fps ~indices:misses
           ~on_result:complete
       in
       t.s_busy <- t.s_busy +. s.Backend.busy_seconds;
       t.s_retries <- t.s_retries + s.Backend.retries
     end);
    (* Resolve duplicates from their representatives. *)
    List.iter
      (fun (i, j) ->
        match out.(j) with
        | Some outcome ->
            incr deduped;
            record i outcome
        | None -> record i (Error (Outcome.Worker_crashed "representative job missing")))
      (List.rev !duplicates);
    let wall = Unix.gettimeofday () -. t0 in
    t.s_jobs <- t.s_jobs + n;
    t.s_hits <- t.s_hits + !hits;
    t.s_dedup <- t.s_dedup + !deduped;
    t.s_exec <- t.s_exec + !executed;
    t.s_fail <- t.s_fail + !failures;
    t.s_wall <- t.s_wall +. wall;
    Array.map
      (function
        | Some o -> o
        | None -> Error (Outcome.Worker_crashed "job never completed"))
      out
  end

let run_exn t jobs =
  Array.mapi
    (fun i outcome ->
      match outcome with
      | Ok r -> r
      | Error e -> failwith (Printf.sprintf "job %d: %s" i (Outcome.error_to_string e)))
    (run t jobs)

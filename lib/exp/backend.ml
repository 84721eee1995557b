(* Pluggable execution backends for the experiment engine.

   A backend is the thing that actually turns cache-missing jobs into
   outcomes; the engine keeps ownership of caching, deduplication,
   progress and statistics, and hands the backend only the set of indices
   it could not serve locally. Two implementations live here (in-process,
   and the fork pool over {!Workers}); the remote-worker client that
   speaks the serve daemon's wire protocol lives in [lib/svc] and plugs
   into the same record. *)

type stats = {
  busy_seconds : float;
  retries : int;
}

type t = {
  name : string;
  parallelism : int;
  telemetry : unit -> (string * Riq_util.Json.t) list;
  execute :
    timeout:float option ->
    jobs:Job.t array ->
    keys:string array ->
    indices:int list ->
    on_result:(int -> seconds:float -> Outcome.t -> unit) ->
    stats;
}

let no_telemetry () = []

let run_in_process (jobs : Job.t array) indices on_result =
  List.iter
    (fun i ->
      let t0 = Unix.gettimeofday () in
      let outcome = Runner.execute_safe jobs.(i) in
      on_result i ~seconds:(Unix.gettimeofday () -. t0) outcome)
    indices

(* Sequential execution in the calling process. *)
let in_process =
  {
    name = "in-process";
    parallelism = 1;
    telemetry = no_telemetry;
    execute =
      (fun ~timeout:_ ~jobs ~keys:_ ~indices ~on_result ->
        run_in_process jobs indices on_result;
        { busy_seconds = 0.; retries = 0 });
  }

(* Drive [indices] through a pool of resident workers, oldest first. *)
let run_pool ~workers ~timeout (jobs : Job.t array) indices on_result =
  let pool = Workers.create ~workers ~timeout () in
  let todo = Queue.of_seq (List.to_seq indices) in
  let left = ref (Queue.length todo) and busy = ref 0. in
  Fun.protect
    ~finally:(fun () -> Workers.shutdown pool)
    (fun () ->
      while !left > 0 do
        while Workers.idle pool > 0 && not (Queue.is_empty todo) do
          let i = Queue.pop todo in
          Workers.submit pool i jobs.(i)
        done;
        let wait = Option.value (Workers.deadline pool) ~default:(-1.) in
        let readable, _, _ =
          Workers.restart_on_intr (fun () -> Unix.select (Workers.fds pool) [] [] wait)
        in
        List.iter
          (fun (f : int Workers.finished) ->
            decr left;
            busy := !busy +. f.seconds;
            on_result f.key ~seconds:f.seconds f.outcome)
          (Workers.collect pool readable)
      done;
      { busy_seconds = !busy; retries = Workers.retries pool })

let fork_pool ~workers =
  if workers < 1 then invalid_arg "Backend.fork_pool: workers must be >= 1";
  {
    name = Printf.sprintf "fork-pool/%d" workers;
    parallelism = workers;
    telemetry = no_telemetry;
    execute =
      (fun ~timeout ~jobs ~keys:_ ~indices ~on_result ->
        if workers = 1 || List.length indices <= 1 || not Sys.unix then begin
          run_in_process jobs indices on_result;
          { busy_seconds = 0.; retries = 0 }
        end
        else begin
          (* Track completions so a pool failure (fork exhaustion, platform
             quirk) can fall back in-process for whatever is still missing. *)
          let done_ = Hashtbl.create (2 * List.length indices) in
          let on_result i ~seconds outcome =
            Hashtbl.replace done_ i ();
            on_result i ~seconds outcome
          in
          try run_pool ~workers ~timeout jobs indices on_result
          with _ ->
            run_in_process jobs
              (List.filter (fun i -> not (Hashtbl.mem done_ i)) indices)
              on_result;
            { busy_seconds = 0.; retries = 0 }
        end);
  }

let default ~workers = if workers > 1 then fork_pool ~workers else in_process

(** A pool of resident forked simulation workers, driven from the
    caller's select loop. Both job paths run on it: the engine's local
    fork backend ({!Backend.default}) and the [riq-sim serve] daemon.

    Each worker is a forked process holding one request pipe and one
    result pipe. Every message is one frame: a 4-byte big-endian length,
    then a [Marshal] payload — a {!Job.t} from parent to worker, and
    [(seconds, Outcome.t)] back, [seconds] being the job's wall-clock
    time measured in the worker.

    One policy covers every failure. A worker that dies with a job
    (EOF or EPIPE on its pipes, or an unreadable result — including a
    worker that dies before reading its job) has the job rerun once on a
    replacement worker, then reported as [Worker_crashed]. A job still
    running at the per-job budget has its worker SIGKILLed and is
    reported as [Job_timeout]. Workers are forked on demand, up to the
    pool size. *)

type 'k t
(** A pool whose jobs carry caller keys of type ['k]. *)

val create :
  ?in_child:(unit -> unit) ->
  ?on_spawn:(int -> unit) ->
  workers:int ->
  timeout:float option ->
  unit ->
  'k t
(** At most [workers] processes; [timeout] is the per-job wall-clock
    budget in seconds ([None] disables it). No process is forked until
    the first {!submit}. [in_child] runs in every new worker right after
    the fork, to close descriptors the child must not keep (a daemon's
    listener and client sockets); [on_spawn] runs in the parent with the
    new worker's pid. SIGPIPE is ignored until {!shutdown}, so a worker
    that dies mid-dispatch surfaces as EPIPE. *)

val idle : 'k t -> int
(** Jobs that can be submitted right now without exceeding the pool size. *)

val busy : 'k t -> int
(** Jobs in flight. *)

val pids : 'k t -> int list
(** Live worker processes. *)

val submit : 'k t -> 'k -> Job.t -> unit
(** Send a job to an idle worker, forking one if needed. Raises
    [Invalid_argument] when {!idle} is 0, and the [Unix_error] of a
    failed fork when no worker can be created. *)

val fds : 'k t -> Unix.file_descr list
(** Result descriptors of the busy workers: what to select on. *)

val deadline : 'k t -> float option
(** Seconds until the nearest per-job budget runs out (0 when one
    already has), or [None] with no budget or nothing in flight. *)

type 'k finished = {
  key : 'k;
  outcome : Outcome.t;
  seconds : float;
      (** wall clock measured in the worker; for a timeout or a crash,
          the time elapsed in the parent *)
  pid : int;  (** the worker that ran the final attempt *)
  started : float;  (** wall clock when the final attempt was dispatched *)
}

val collect : 'k t -> Unix.file_descr list -> 'k finished list
(** Turn the readable descriptors (from a select over {!fds}) and every
    expired budget into finished jobs. A worker death found here is
    retried on a replacement before this returns, so its job only comes
    back once it finishes for good. *)

val retries : 'k t -> int
(** Jobs rerun after a worker death. *)

val timeouts : 'k t -> int
(** Jobs reported as [Job_timeout]. *)

val shutdown : 'k t -> unit
(** Stop every worker — idle ones through EOF on their request pipe,
    busy ones with SIGKILL — reap them all, and restore SIGPIPE. *)

(** {1 Blocking I/O}

    The descriptor helpers the pool and the wire protocol share. *)

val restart_on_intr : (unit -> 'a) -> 'a
(** Retry [f] while it fails with [EINTR]. *)

val read_exact : Unix.file_descr -> int -> bytes
(** Read exactly [n] bytes; raises [End_of_file] if the peer closes first. *)

val write_all : Unix.file_descr -> bytes -> unit

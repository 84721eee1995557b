open Riq_asm
open Riq_ooo

(** A job is one simulation the engine may run, cache, or farm out: a
    machine configuration, a program image, whether to differentially
    validate, and the cycle budget. *)

type t = {
  cfg : Config.t;
  program : Program.t;
  check : bool;
  verdicts : bool;
      (** also cross-check the run's per-loop promotions and revoke
          causes against the static bufferability analysis
          ({!Riq_analysis.Bufferability.consistency}; only meaningful with
          [reuse_enabled]; used by the fuzzer) *)
  cycle_limit : int;
}

val default_cycle_limit : int
(** 100 million cycles, matching the harness's historical default. *)

val make :
  ?check:bool -> ?verdicts:bool -> ?cycle_limit:int -> Config.t -> Program.t -> t
(** [check] and [verdicts] default to false. *)

val fingerprint : t -> string
(** Deterministic content address (hex MD5) of the job, in two levels:
    the MD5 of the program's digest followed by the simulator-revision
    stamp, the marshalled configuration, the check and verdicts flags and
    the cycle limit. The program's digest is one MD5 of a binary image of
    what {!Riq_asm.Program.load} writes: text base, entry, code words,
    and every data segment as a tag, base, length and its values as the
    32-bit words that load. Symbols, and the bits of a value that loading
    drops, are not part of it. Stable across processes and binaries; two
    jobs with equal fingerprints produce bit-identical outcomes. The
    image layout is part of the cache format: changing it means bumping
    {!Revision.format_version}. Equal to [(fingerprints [| t |]).(0)]. *)

val fingerprints : t array -> string array
(** [Array.map fingerprint], digesting each physically distinct
    {!Riq_asm.Program.t} once per call: the jobs of a sweep share a few
    programs, and a program's image is most of every job's, so the cost
    follows the batch's distinct program bytes, not jobs times program
    bytes. No digest is kept beyond the call (a program's arrays are
    mutable). *)

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
      (** also cross-check dynamic promotions against the static
          bufferability analysis (only meaningful with [reuse_enabled];
          used by the fuzzer) *)
  cycle_limit : int;
}

val default_cycle_limit : int
(** 100 million cycles, matching the harness's historical default. *)

val make :
  ?check:bool -> ?verdicts:bool -> ?cycle_limit:int -> Config.t -> Program.t -> t
(** [check] and [verdicts] default to false. *)

val fingerprint : t -> string
(** Deterministic content address (hex MD5) of the job: one digest of a
    binary image holding the encoded program (text base, entry, code
    words, and every data segment as a tag, base, length and 8-byte
    values), the simulator-revision stamp, the marshalled configuration,
    the check and verdicts flags and the cycle limit. Symbols are not
    part of it. Stable across processes and binaries; two jobs with equal
    fingerprints produce bit-identical outcomes. The image layout is part
    of the cache format: changing it means bumping
    {!Revision.format_version}. *)

val fingerprints : t array -> string array
(** [Array.map fingerprint], writing the image of each physically
    distinct {!Riq_asm.Program.t} once per batch: the jobs of a sweep
    share a few programs, and a program's image is most of every job's. *)

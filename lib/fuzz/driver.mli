open Riq_ooo

(** Fuzzing campaign driver: generate [count] programs from a base seed,
    fan the simulations out over the experiment engine's worker pool
    ({!Riq_exp.Engine} — the {!Oracle}'s two legs per program, reuse off
    and on, each a job that carries every check), take a failing leg's
    engine error as the diagnosis, shrink the program against the
    in-process {!Oracle} ({!Shrink.minimize}) and hand back standalone
    repro assembly.

    Everything here is deterministic: equal (config, seed, count) produce
    an equal {!result} and byte-equal {!summary_to_string}, regardless of
    worker count or cache state. Timing belongs to the caller's progress
    reporting, never to the summary. *)

val configs : (string * (Config.t * Gen.params)) list
(** Named campaign configurations: ["default"], ["small-iq"] (16-entry
    queue), ["big-iq"] (128), ["no-nblt"], ["single-iter"] (strategy 1
    buffering). The configuration is the reuse-on leg; the driver derives
    the reuse-off leg from it. *)

val config : string -> (Config.t * Gen.params, string) result

type failure = {
  f_seed : int;  (** per-program generator seed *)
  f_index : int;  (** index of the program in the campaign *)
  f_detail : string;  (** the failing leg's error ({!Oracle.failure_to_string}) *)
  f_repro : Prog.t;  (** shrunk reproducer *)
  f_repro_insns : int;  (** assembled size of the reproducer *)
}

type agg = {
  programs : int;
  static_insns : int;  (** assembled instructions across the corpus *)
  committed : int;  (** dynamically committed, reuse-on legs *)
  attempts : int;
  revokes : int;
  promotions : int;
  exits : int;
  reuse_committed : int;
}

type result = {
  config_name : string;
  base_seed : int;
  passed : int;
  failures : failure list;  (** ascending campaign index *)
  agg : agg;
}

val run :
  ?engine:Riq_exp.Engine.t ->
  config:string ->
  seed:int ->
  count:int ->
  unit ->
  (result, string) Stdlib.result
(** [Error] only for an unknown configuration name; simulation failures
    are data ({!result.failures}). [engine] defaults to a fresh
    single-worker engine without a cache. *)

val summary_to_string : result -> string
(** The deterministic run report ([riq-fuzz run]'s stdout). *)

val repro_text : config_name:string -> failure -> string
(** Standalone [.s] reproducer: provenance header (seed, configuration,
    failure) over the shrunk program's assembly. Replayable with
    [riq-fuzz replay]. *)

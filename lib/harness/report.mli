open Riq_core

(** Unified run report: one schema-versioned JSON document merging the
    simulator statistics, per-loop reuse decisions, power-group breakdown
    and — when observability was attached to the run — the tracer and
    sampler summaries. Written by [riq-sim run --report FILE].

    The [stats] block is the canonical JSON rendering of
    {!Riq_core.Processor.stats}; {!Sweep.to_json} embeds the same
    rendering per cell, so the two exports stay field-compatible. *)

val schema : string
(** ["riq-report/1"]. *)

val stats_json : Processor.stats -> Riq_util.Json.t
(** Every field of {!Processor.stats}, by name. *)

val make : ?benchmark:string -> Processor.t -> Riq_util.Json.t
(** Build the report from a finished (or running) processor. Top-level
    keys: [schema], [revision], optional [benchmark], [config], [stats],
    [power] (per-{!Riq_power.Component.group} average power plus total),
    [loop_decisions], [trace] ({!Riq_obs.Tracer.summary}) and [sampler]
    ({!Riq_obs.Sampler.summary}, [null] when no sampler was attached). *)

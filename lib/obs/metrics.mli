(** Dependency-free metrics registry: the service-level mirror of the
    cycle-level {!Tracer}/{!Sampler} pair.

    A registry holds named series — monotonic {e counters}, last-write
    {e gauges} and fixed-bucket {e histograms} — each optionally
    distinguished by a small label set. Handles are cheap mutable cells:
    the hot path ([inc]/[observe]) is a field update, no allocation, no
    hashing. Registration is idempotent — asking for an existing
    (name, labels) series returns the same handle, so independent modules
    can instrument themselves against a shared registry without
    coordination.

    Snapshots are immutable data sorted by (name, labels). They leave the
    process in one format, the JSON document of schema [riq-metrics/1]
    ({!to_json}), which round-trips through {!snapshot_of_json}: the
    daemon's [metrics] op, [riq-sim top --json] and
    [riq-cache stat --json] all print it. *)

type t
(** A registry. *)

val create : unit -> t

(** {1 Instruments} *)

type counter

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or retrieve) the counter (name, labels). Names must match
    [[a-zA-Z_][a-zA-Z0-9_]*]; by convention counters end in [_total].
    Raises [Invalid_argument] on a malformed name or if the name is
    already registered as a different instrument kind. *)

val inc : counter -> unit
val add : counter -> int -> unit
(** [add c n] with [n < 0] raises [Invalid_argument]: counters are
    monotonic. *)

val counter_value : counter -> int

type gauge

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

type histogram

val log_buckets : ?start:float -> ?factor:float -> int -> float array
(** [log_buckets n] is [n] ascending upper bounds [start * factor^i]
    (defaults [start = 1e-6], [factor = 2.], spanning ~1 us to ~9 min at
    [n = 30] — the service default for durations in seconds). The
    implicit overflow (+Inf) bucket is not included. *)

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> ?buckets:float array ->
  string -> histogram
(** Register (or retrieve) the histogram. [buckets] (default
    [log_buckets 30]) are ascending finite upper bounds; an overflow
    bucket is always appended. Retrieval ignores [buckets] (the first
    registration wins). *)

val observe : histogram -> float -> unit
(** Value [v] lands in the first bucket with [v <= bound] (upper bounds
    are inclusive, so a value exactly on an edge belongs to that edge's
    bucket) or in the overflow bucket beyond the last bound. *)

val histogram_count : histogram -> int

(** {1 Snapshots} *)

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Histogram_sample of { bounds : float array; counts : int array; sum : float }
      (** [counts] has one more slot than [bounds]: the overflow bucket.
          Counts are per-bucket (not cumulative). *)

type series = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;  (** sorted by key *)
  s_value : sample;
}

type snapshot = series list
(** Sorted by (name, labels) — deterministic, so documents diff
    cleanly. *)

val snapshot : t -> snapshot

(** {1 The riq-metrics/1 document} *)

val to_json : snapshot -> Riq_util.Json.t
(** Schema [riq-metrics/1]: [{"schema", "series": [...]}], one object per
    series with its [name], [help], [labels] object and [type]; a counter
    or gauge carries its [value], a histogram its [bounds], per-bucket
    [counts] (overflow last) and [sum]. *)

val snapshot_of_json : Riq_util.Json.t -> (snapshot, string) result
(** Inverse of {!to_json} — wire transport for the [metrics] op. *)

val histogram_quantile : float -> bounds:float array -> counts:int array -> float
(** [histogram_quantile q] estimates the [q]-th quantile by linear
    interpolation inside the bucket where the rank falls (the overflow
    bucket clamps to the last finite bound). 0. when the histogram is
    empty. Raises [Invalid_argument] when [q] is outside [0, 1]. *)

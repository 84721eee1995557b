(** Bounded per-cycle time-series recorder.

    The pipeline records one multi-channel sample every [stride] cycles
    (windowed IPC, queue occupancies, per-group power, ...) into a sampler
    it builds itself ([Processor.create ?sample_stride]). Memory stays
    O([max_samples]) for arbitrarily long runs through automatic
    decimation: when the buffer fills, every other sample is discarded and
    the effective stride doubles, so the retained series always covers the
    whole run at uniform (if coarsened) resolution. *)

type t

val create : ?stride:int -> ?max_samples:int -> channels:string list -> unit -> t
(** [stride] (default 64) is the initial sampling period in cycles;
    [max_samples] (default 4096, >= 2) bounds the retained series.
    [channels] names the sample components, in recording order. *)

val stride : t -> int
(** Current effective stride: the initial stride times [2^decimations]. *)

val decimations : t -> int
val length : t -> int
(** Samples currently retained. *)

val due : t -> cycle:int -> bool
(** Whether [cycle] falls on the current stride — the pipeline's cheap
    per-cycle check. *)

val record : t -> cycle:int -> float array -> unit
(** Append one sample ([Array.length] must equal the channel count);
    decimates first when the buffer is full. *)

val samples : t -> (int * float array) list
(** Retained (cycle, values) pairs, oldest first. *)

val summary : t -> Riq_util.Json.t
(** Per-channel min / mean / p50 / p95 / max over the retained samples —
    the block embedded in run reports. *)

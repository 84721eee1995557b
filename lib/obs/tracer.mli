(** Structured event tracer with pluggable sinks.

    The simulator emits {e span} (begin/end), {e instant} and {e counter}
    events keyed by cycle number. Three sinks are provided:

    - {!null}: discards everything. [enabled] is [false], so guarded call
      sites ([if Tracer.enabled tr then ...]) pay one branch and no
      allocation — the default configuration is observability-free.
    - {!ring}: a bounded in-memory ring buffer; when full, the oldest
      events are overwritten ({!dropped} counts the overwrites). Use for
      programmatic inspection and post-mortem dumps.
    - {!stream}: streaming Chrome trace-event JSON written to an
      [out_channel] as events arrive — the file (after {!close}) is a
      valid JSON array loadable in Perfetto ([ui.perfetto.dev]) or
      [chrome://tracing].

    Timestamps are simulated cycles, exported 1 cycle = 1 us so trace
    viewers show meaningful durations. *)

type t

type phase =
  | Begin  (** span open — Chrome ["B"] *)
  | End  (** span close — Chrome ["E"] *)
  | Instant  (** point event — Chrome ["i"] *)
  | Counter  (** counter track sample — Chrome ["C"] *)
  | Meta  (** metadata (thread names) — Chrome ["M"] *)
  | Complete  (** self-contained span with a duration — Chrome ["X"] *)

type arg = Int of int | Float of float | Str of string

type event = {
  ts : int;  (** cycle number (core traces) or wall-clock us (service traces) *)
  ph : phase;
  name : string;
  cat : string;
  pid : int;  (** process track; see {!set_pid} *)
  tid : int;  (** track id; see {!set_thread_name} *)
  dur : int;  (** {!Complete} events only: span length in ts units *)
  args : (string * arg) list;
}

val null : unit -> t
val ring : ?capacity:int -> unit -> t
(** Bounded sink (default capacity 4096 events). *)

val stream : ?process_name:string -> out_channel -> t
(** Streaming Chrome-trace sink; the caller owns the channel but must call
    {!close} (which flushes and writes the closing bracket) before closing
    it. [process_name] (default ["riq-sim"]) labels the Perfetto process
    track. *)

val enabled : t -> bool
(** [false] only for the null sink. Call sites building argument lists
    should guard on this so the disabled tracer allocates nothing. *)

val set_pid : t -> int -> unit
(** Default process id stamped on subsequent events (initially 1). The
    serving tier sets the real Unix pid so events from several processes
    merge into one multi-process trace; core traces keep the default. *)

val set_thread_name : t -> ?pid:int -> tid:int -> string -> unit
(** Label a track; shows as a named thread row in trace viewers. *)

val set_process_name : t -> ?pid:int -> string -> unit
(** Label a process track — what {!stream} emits automatically; ring
    traces destined for a merged multi-process file emit it themselves. *)

val begin_span :
  t -> now:int -> ?pid:int -> ?tid:int -> ?args:(string * arg) list -> cat:string ->
  string -> unit

val end_span :
  t -> now:int -> ?pid:int -> ?tid:int -> ?args:(string * arg) list -> cat:string ->
  string -> unit
(** Spans pair by (name, tid) nesting in the viewer; emit [end_span] with
    the same name/tid as the matching {!begin_span}. *)

val instant :
  t -> now:int -> ?pid:int -> ?tid:int -> ?args:(string * arg) list -> cat:string ->
  string -> unit

val complete :
  t -> now:int -> dur:int -> ?pid:int -> ?tid:int -> ?args:(string * arg) list ->
  cat:string -> string -> unit
(** One Chrome ["X"] event: a span that starts at [now] and lasts [dur],
    needing no matching end. The serving tier uses these for queue-wait
    and simulate spans, whose begin and end are known together. *)

val counter : t -> now:int -> name:string -> (string * float) list -> unit
(** One sample on counter track [name]; each pair becomes a series. *)

val recorded : t -> int
(** Events accepted since creation (including any later overwritten). *)

val dropped : t -> int
(** Ring sink only: events overwritten by newer ones. *)

val counts : t -> (string * int) list
(** Per-event-name emission counts, sorted by name. *)

val events : t -> event list
(** Ring sink: retained events, oldest first. Empty for other sinks. *)

val event_json : event -> Riq_util.Json.t
(** One event as a Chrome trace-event object. *)

val to_json : t -> Riq_util.Json.t
(** Ring sink contents as a complete Chrome trace (JSON array). *)

val summary : t -> Riq_util.Json.t
(** Sink kind, recorded/dropped totals and per-name counts — the block
    embedded in run reports. *)

val close : t -> unit
(** Finalize: for {!stream}, writes the closing bracket and flushes.
    Idempotent; a no-op for other sinks. *)

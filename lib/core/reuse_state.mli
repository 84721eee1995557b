(** Issue-queue operating state (Figure 2 of the paper) and the bookkeeping
    registers of the reuse engine: R_loophead, R_looptail, the
    iteration-size counter, and the procedure-call depth tracked while
    buffering.

    Transitions are driven by the pipeline ({!Processor}); this module
    centralises the registers and the statistics the experiments report
    (buffering attempts, revokes, promotions, reuse exits). *)

type state =
  | Normal
  | Buffering (** Loop Buffering: renamed loop instructions are retained *)
  | Reusing (** Code Reuse: the front-end is gated *)

type t = {
  tracer : Riq_obs.Tracer.t;
      (** sink for the state-machine spans; the null tracer by default *)
  mutable state : state;
  mutable head : int; (** R_loophead: address of the first loop instruction *)
  mutable tail : int; (** R_looptail: address of the loop-ending instruction *)
  mutable iter_count : int; (** instructions dispatched in the current buffering iteration *)
  mutable call_depth : int; (** procedure nesting while buffering *)
  mutable iters_buffered : int;
  mutable n_buffer_attempts : int;
  mutable n_revokes : int;
  mutable n_promotions : int;
  mutable n_reuse_exits : int;
}

val create : ?tracer:Riq_obs.Tracer.t -> unit -> t
(** With a [tracer], every transition emits span events: a
    ["loop-buffering"] span covers Buffering, a ["code-reuse"] span covers
    the gating window ([now] is the span timestamp). *)

val start_buffering : ?now:int -> t -> head:int -> tail:int -> unit
(** Normal -> Buffering (capturable loop detected, NBLT miss). *)

val revoke : ?now:int -> t -> unit
(** Buffering -> Normal. *)

val promote : ?now:int -> t -> unit
(** Buffering -> Reusing. *)

val exit_reuse : ?now:int -> t -> unit
(** Reusing -> Normal. *)

val in_loop : t -> pc:int -> bool
(** Whether [pc] lies within [head, tail]. *)

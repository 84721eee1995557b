(** Issue-queue operating state (Figure 2 of the paper) and the bookkeeping
    registers of the reuse engine: R_loophead, R_looptail, the
    iteration-size counter, and the procedure-call depth tracked while
    buffering.

    Transitions are driven by the pipeline ({!Processor}); this module
    centralises the registers and the statistics the experiments report
    (buffering attempts, revokes, promotions, reuse exits). The processor
    also emits the trace spans that mark each state. *)

type state =
  | Normal
  | Buffering (** Loop Buffering: renamed loop instructions are retained *)
  | Reusing (** Code Reuse: the front-end is gated *)

(** Why a buffering attempt is revoked ({!revoke}): one constructor per
    revoke site in the pipeline. The static analysis
    ([Riq_analysis.Bufferability]) predicts these, and the core counts
    them per loop ([Processor.revokes]), so the oracle cross-checks
    prediction against execution. *)
type revoke_cause =
  | Rv_inner_loop
      (** decode saw a second capturable backward transfer (Section 2.2.2) *)
  | Rv_left_loop
      (** decode left the loop window before promotion, or the loop's own
          branch mispredicted (Section 2.2.3) *)
  | Rv_overflow (** the issue queue filled while buffering (Section 2.2.2) *)
  | Rv_mispredict
      (** recovery from a mispredicted branch older than the loop *)

val revoke_causes : revoke_cause list
(** Every cause, in declaration order (the tie-break order of a loop's
    dominant cause). *)

val cause_to_string : revoke_cause -> string

type t = {
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

val create : unit -> t

val start_buffering : t -> head:int -> tail:int -> unit
(** Normal -> Buffering (capturable loop detected, NBLT miss). *)

val revoke : t -> unit
(** Buffering -> Normal. *)

val promote : t -> unit
(** Buffering -> Reusing. *)

val exit_reuse : t -> unit
(** Reusing -> Normal. *)

val in_loop : t -> pc:int -> bool
(** Whether [pc] lies within [head, tail]. *)

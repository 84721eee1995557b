open Riq_asm

(** Static classification of backward transfers against the paper's
    decode-time bufferability criteria (Sections 2.1-2.3).

    The analysis mirrors what the dynamic core decides while running:

    - the [Riq_core.Decoded.loop_span] candidate test (backward
      conditional branch or direct jump whose static span fits the issue
      queue);
    - the revoke conditions of Sections 2.2.2-2.2.3 (an inner loop, a
      procedure that overflows the queue, an indirect transfer, leaving
      the loop while buffering);
    - the promote condition of Section 2.2.1 (multiple-iteration
      buffering while iterations fit), which yields the predicted
      automatic unroll factor;
    - and, from statically estimated trip counts and block execution
      frequencies, the fraction of committed instructions the issue queue
      is expected to supply (predicted reuse coverage).

    Irreducible control flow is rejected, never mis-detected: a backward
    branch participating in a retreating edge whose target does not
    dominate it gets {!constructor-Irreducible}. *)

type reason =
  | Too_large of int (** static span exceeds the issue queue; carries the span *)
  | Inner_transfer of int
      (** another backward branch/jump inside the window (inner loop,
          sibling back edge, or backward exit); carries its pc *)
  | Call_overflow of int
      (** iteration footprint including direct callees exceeds the queue;
          carries the footprint in instructions *)
  | Callee_loops of int (** a direct callee contains a loop; carries the callee entry *)
  | Indirect of int (** [jr]/[jalr] in the window or a callee; carries its pc *)
  | Contains_halt of int
  | Side_entry (** the loop body is entered other than through the header *)
  | Irreducible (** retreating edge whose target does not dominate it *)

type prediction =
  | Promotes (** buffering is expected to reach Code Reuse *)
  | Never_promotes (** detected but expected to revoke or exit early, every time *)
  | Marginal (** too close to a capacity or trip-count boundary to call *)

(** Data-fact risks from the {!Valrange}-based trip-count derivation.
    They do not change the control-flow verdict; they flag what the shape
    analysis alone cannot decide. *)
type risk =
  | Data_dependent_trip
      (** the trip count is not statically derivable, so the promotion
          prediction degrades to {!constructor-Marginal} *)

type loop_report = {
  head : int; (** byte address of the loop's first instruction *)
  tail : int; (** byte address of the backward transfer *)
  span : int; (** static body size in instructions, as the detector measures it *)
  depth : int; (** loop-nest depth (1 = outermost); 0 when no natural loop exists *)
  innermost : bool;
  verdict : (unit, reason) result;
  trip : int option; (** statically derived per-entry iteration count *)
  entries : float option; (** estimated number of times the loop is entered *)
  unroll : int; (** predicted automatic unroll factor (iterations buffered) *)
  prediction : prediction;
  nblt_risk : bool; (** expected to register in the non-bufferable loop table *)
  reused_insns : float option; (** predicted committed instructions supplied by reuse *)
  risks : risk list; (** data-fact risks; empty for control-flow-rejected loops *)
  predicted_cause : Riq_core.Reuse_state.revoke_cause option;
      (** the revoke cause the static verdict implies, when it implies
          one: inner-loop for {!constructor-Inner_transfer} /
          {!constructor-Callee_loops}, overflow for
          {!constructor-Call_overflow}, left-loop for a clean window
          that can never reach promotion *)
}

type report = {
  iq_size : int;
  loops : loop_report list; (** every executable backward transfer, by tail address *)
  total_insns : float; (** estimated dynamic committed instructions *)
  coverage : float option; (** predicted reuse coverage, percent of committed *)
  exact_trips : bool; (** every trip count involved was statically derived *)
  irreducible_edges : (int * int) list; (** retreating non-back edges (block ids) *)
  unreachable : (int * int) list;
      (** byte-address ranges [(first, last)] of statically unreachable
          blocks (meaningful now that [la; jr] targets resolve) *)
}

val analyze : ?multi_iter:bool -> iq_size:int -> Program.t -> report
(** [multi_iter] defaults to true (the paper's strategy 2). *)

val analyze_config : Riq_ooo.Config.t -> Program.t -> report
(** Pull [iq_entries] and [buffer_multiple_iterations] from a machine
    configuration. *)

val reason_to_string : reason -> string

val hard_reject : reason -> bool
(** Rejection reasons whose dynamic counterpart can never promote, because
    the offending condition sits on every head-to-tail path and is decoded
    even when not taken: {!constructor-Too_large} (the detector measures
    the same span), {!constructor-Inner_transfer} and
    {!constructor-Callee_loops} (the inner back edge revokes buffering at
    decode). The remaining reasons are advisory for arbitrary control
    flow — e.g. a guarded call can make a statically overflowing loop fit
    dynamically. The differential fuzzer ({!Riq_fuzz}) generates programs
    that never hide a hard condition behind a guard, so for those programs
    a promotion of a hard-rejected loop is a simulator bug. *)

val consistency :
  report -> Riq_core.Processor.loop_decision list -> (unit, string) result
(** [consistency report decisions] checks a run's per-loop decisions
    ({!Riq_core.Processor.loop_decisions}) against the static verdicts:
    a promotion of a {!hard_reject}-ed loop, or of a tail the analysis
    never saw, is an inconsistency. So is an inner-loop revoke at a tail
    whose window scan completed (verdict [Ok], [Call_overflow],
    [Side_entry], [Irreducible] — or [Too_large], which never buffers),
    because a completed scan proves no second backward transfer is
    decodable while buffering. *)

val coverage_of : report -> tail:int -> float option
(** Predicted coverage contribution (percent of all committed
    instructions) of the loop ending at [tail]. *)

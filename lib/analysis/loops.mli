(** Natural-loop detection on a {!Cfg.t}.

    A back edge is an edge [t -> h] whose target [h] dominates its source
    [t]; the natural loop of the edge is [h] plus every block that reaches
    [t] without passing through [h]. Loops sharing a header are merged
    (they are one loop with several back edges to the paper's detector,
    which keys loops by their ending instruction).

    Retreating edges whose target does {e not} dominate the source signal
    an irreducible region (e.g. a jump into the middle of a loop). They are
    reported in {!field-irreducible} and deliberately produce {e no} loop:
    the bufferability pass rejects the corresponding backward branches
    instead of mis-classifying them as capturable loops. *)

type loop = {
  l_header : int; (** block id *)
  l_back_edges : int list; (** source blocks of the back edges *)
  l_blocks : int list; (** member block ids, sorted, header included *)
  l_depth : int; (** nesting depth, 1 = outermost *)
  l_parent : int option; (** index of the enclosing loop in {!field-loops} *)
  l_children : int list; (** indices of directly nested loops *)
}

type t = {
  cfg : Cfg.t;
  dom : Dominators.t;
  loops : loop array; (** sorted outermost-first (by depth, then header) *)
  irreducible : (int * int) list; (** retreating non-back edges (src, dst) *)
}

val detect : Cfg.t -> t

val loop_of_header : t -> int -> loop option

val innermost : t -> loop -> bool

val containing : t -> int -> int list
(** Indices of every loop containing the given block, outermost first. *)

(** Dominator computation over a {!Cfg.t}.

    Iterative dataflow on the reverse-postorder worklist (Cooper, Harvey,
    Kennedy, "A Simple, Fast Dominance Algorithm"): converges in a handful
    of passes on reducible graphs and is robust on irreducible ones, which
    the loop detector then rejects explicitly. Unreachable blocks have no
    dominator information ({!idom} returns [None]; {!dominates} is false
    except on the block itself). *)

type t

val compute : Cfg.t -> t

val idom : t -> int -> int option
(** Immediate dominator of a block id; [None] for the entry block and for
    unreachable blocks. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b] — does block [a] dominate block [b]? Reflexive. *)

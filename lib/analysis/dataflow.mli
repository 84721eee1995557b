(** Generic worklist dataflow framework over {!Cfg.t}.

    A client supplies a join-semilattice of facts ({!LATTICE}) and a
    per-block transfer function; {!Make.solve} iterates to the least
    fixpoint with a worklist seeded in reverse postorder, propagating
    facts along CFG edges from the entry block.

    The solver checks its own answer: after the worklist drains it makes
    one more full pass and raises {!Unstable} if any fact still moves (a
    broken [equal] or a non-deterministic transfer), and it raises
    {!Non_monotone} as soon as a recomputed block output loses
    information relative to the previous visit — the observable symptom
    of a non-monotone transfer function, which would make the "fixpoint"
    an artifact of visit order.

    Lattices of unbounded height (e.g. integer intervals) terminate via
    {!LATTICE.widen}: once a node's input has been recomputed 16 times,
    subsequent joins at that node go through [widen] instead, which must
    force ascent to a finite ceiling. *)

(** The CFG stripped to what the solver needs. Tests build these by hand
    to pin solver properties down independently of {!Cfg.build}. *)
type graph = {
  g_nodes : int;
  g_entry : int;  (** boundary node; [-1] for none *)
  g_succs : int list array;
  g_preds : int list array;
  g_order : int array;  (** iteration-order hint, typically reverse postorder *)
}

val of_cfg : Cfg.t -> graph

module type LATTICE = sig
  type fact

  val name : string
  val bottom : fact
  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact

  val widen : fact -> fact -> fact
  (** [widen old new_] replaces [join] at a node visited more than 16
      times. Must satisfy [leq new_ (widen old new_)] and reach a fixed
      ceiling in finitely many steps. Finite lattices can use [join]. *)
end

exception Non_monotone of { lattice : string; node : int }
exception Unstable of { lattice : string; node : int }

module Make (L : LATTICE) : sig
  type result = {
    input : L.fact array;  (** per node: fact at block entry *)
    output : L.fact array;  (** [transfer node input.(node)] *)
  }

  val solve :
    ?boundary:L.fact -> transfer:(int -> L.fact -> L.fact) -> graph -> result
  (** [transfer] maps a node id and its input fact to its output fact.
      [boundary] (default {!L.bottom}) is joined into the input of
      [g_entry] and of any no-predecessor node.

      @raise Non_monotone see above.
      @raise Unstable see above. *)

  val solve_cfg :
    ?boundary:L.fact -> transfer:(int -> L.fact -> L.fact) -> Cfg.t -> result
end

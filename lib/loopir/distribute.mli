(** Loop distribution (Kennedy/McKinley), the Section 4 compiler
    optimization.

    [distribute_program] rewrites every [Sfor] whose body contains more
    than one top-level statement into the maximal sequence of smaller loops
    that preserves all data dependences: a dependence graph is built over
    the body's top-level statements, strongly-connected components must
    stay in one loop, and the component loops are emitted in topological
    order.

    The dependence test is subscript-aware for the common affine form
    [index + constant]: a conflicting array pair with dependence distance
    [d > 0] yields a forward (writer-to-accessor) edge, [d < 0] a backward
    edge, [d = 0] a textual-order edge; provably non-overlapping constant
    subscripts yield no edge; anything unanalysable is treated
    conservatively as a bidirectional edge. Scalars shared between two
    different statements always merge them (no scalar expansion), except
    that loop-index variables — which are written by [Sfor] itself and, by
    convention, never used as data across statements — are exempt.
    Procedure calls contribute the callee's transitive access sets. *)

val distribute_program : Ir.program -> Ir.program
(** Distribute every loop, innermost-first, throughout main and all
    procedures. *)

(** {2 Exposed for tests} *)

type edge_kind = No_dep | Forward | Backward | Both

val statement_dependence : Ir.program -> loop_var:string -> Ir.stmt -> Ir.stmt -> edge_kind
(** Dependence classification for an ordered pair of body statements
    (first argument textually first): [Forward] means only first-to-second
    edges exist, [Backward] only second-to-first, [Both] a cycle. *)

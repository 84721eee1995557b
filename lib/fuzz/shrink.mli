(** Greedy structural shrinker for failing fuzz programs.

    Enumerates one-edit variants of a {!Prog.t} — delete an item, unwrap a
    loop or guard into its body, halve or collapse a trip count — coarse
    edits first, takes the first variant on which [still_fails] holds, and
    restarts from it. The result is locally minimal: no single remaining
    edit preserves the failure (unless 400 calls to [still_fails] ran out
    first).

    [still_fails] must be deterministic and should return [false] for
    programs that no longer assemble ({!Prog.to_program} = [Error]) —
    the shrinker itself never looks at the rendered assembly. *)

val minimize : still_fails:(Prog.t -> bool) -> Prog.t -> Prog.t

(** Structured random loop programs for the differential fuzzer.

    A fuzz program is a tree of loops, guarded regions and straight-line
    instruction patterns that renders to RIQ32 assembly text. The structure
    guarantees two properties the oracle depends on:

    - {b termination}: every loop counts a dedicated register down from a
      constant trip count, breaks only exit forward, guards only skip
      forward, procedures are leaf calls, and indirect jumps target the
      immediately following instruction;
    - {b memory safety}: every computed address is masked into one of the
      program's data arrays before use, so loads and stores always land in
      [buf]/[fbuf] (or in untouched low memory, identically on every
      simulator).

    Register convention (the renderer and generator keep these disjoint):
    [r24] base of [buf], [r25] = [r24]+8 (aliasing base), [r26] base of
    [fbuf]; [r16..r19] loop counters by nesting depth, [r20] the procedure
    loop counter; [r8..r13] integer scratch; [r14]/[r15] pattern-internal
    temporaries; [f0..f7] float scratch. Guards and breaks never wrap
    loops, calls or indirect jumps, which is what makes the static
    bufferability verdicts of hard-reject loops exact (see
    {!Riq_analysis.Bufferability.hard_reject}). *)

type item =
  | Op of string
      (** One straight-line instruction pattern: one or more assembly
          lines, atomic for the shrinker. Must not write [r16..r31] or the
          base registers. *)
  | Guard of guard
      (** Forward conditional skip over straight-line ops only. *)
  | Loop of loop
  | Call of int (** [jal p<i>] *)
  | Break of int
      (** Early exit of the innermost enclosing loop when its counter
          equals the given value. Rendered as nothing outside a loop. *)
  | Ijump (** [la r14, L; jr r14; L:] — an in-window indirect transfer *)

and guard = {
  g_cond : string;
      (** condition without target, e.g. ["bne r8, r9"] or ["bgtz r10"];
          the renderer appends the skip label *)
  g_body : item list;
}

and loop = { trip : int; (** constant trip count, >= 1 *) body : item list }

type proc = { p_name : string; p_body : item list }

type t = {
  seed : int; (** generator seed, for provenance comments *)
  main : item list;
  procs : proc list; (** only procedures actually called are rendered *)
  data_i : int array; (** initial contents of [buf] (words) *)
  data_f : float array; (** initial contents of [fbuf] *)
}

val render : t -> string
(** Assembly text: prologue (base-register setup, emitted only for the
    bases the body actually uses), main items, [halt], called procedures,
    data directives. Deterministic: equal programs render to equal text. *)

val to_program : t -> (Riq_asm.Program.t, string) result
(** [render] then assemble. *)

val size_insns : t -> int
(** Number of instructions in the assembled image ([0] if the program
    fails to assemble — the shrinker treats that as uninteresting). *)

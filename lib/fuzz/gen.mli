(** Seeded random generator of structured loop programs.

    Fully deterministic: [program ~seed] builds every random choice from a
    {!Riq_util.Rng} stream derived from [seed] alone, so a seed identifies
    a program forever (the corpus in [test/] and CI replays rely on this).

    The generator is biased so a tunable fraction of generated loops is
    bufferable by the paper's criteria, and the rest exercise each revoke
    path: nests (inner transfer), bodies straddling the issue-queue size
    boundary (too large), embedded procedure calls (call overflow /
    callee loops), early exits, and — optionally — in-window indirect
    jumps. Loads and stores mix direct offsets off two aliasing base
    registers with masked register-indexed addressing, so buffered loop
    iterations see genuinely different memory behaviour. *)

type params = {
  iq_size : int;
      (** issue-queue size to straddle when sizing loop bodies *)
  bufferable_bias : float;
      (** fraction of generated loops aimed at the bufferable shape *)
  min_top : int;
  max_top : int; (** top-level item count range *)
  dynamic_budget : int;
      (** approximate cap on dynamically executed instructions *)
  allow_ijump_in_loop : bool;
      (** permit indirect jumps inside loop bodies (stresses a corner the
          static analysis flags {!Riq_analysis.Bufferability.Indirect};
          off by default) *)
  miss_bias : float;
      (** probability that a straight-line slot draws the counter-scaled
          strided memory pattern: long-latency loads walking one cache
          line per loop iteration, whose miss fills straddle iteration
          boundaries, so reused loops run with long-latency misses in
          flight; [> 0.] also widens the program's integer data window
          to 8 KiB. *)
}

val default : params
(** [iq_size = 64], [bufferable_bias = 0.6], 3..7 top-level items, 40k
    dynamic instructions, no in-loop indirect jumps, [miss_bias = 0.12]. *)

val small_iq : params
(** [default] resized for a 16-entry queue. *)

val program : ?params:params -> seed:int -> unit -> Prog.t
(** Generate one program. Renders to valid assembly by construction. *)

val derive_seed : int -> int -> int
(** [derive_seed base i] — the per-program seed the driver and the corpus
    use for program [i] of a run seeded with [base] (splitmix-style
    mixing, stable across platforms). *)

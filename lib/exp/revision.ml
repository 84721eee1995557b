(* The simulator-revision stamp folded into every job fingerprint and into
   the cache directory layout. Cached results are only reusable while the
   simulator produces bit-identical outputs for the same job, so this must
   be bumped whenever the timing model, the power model, the reference
   interpreter, the workload compiler or the statistics change meaning.
   Bumping it orphans the old cache tree (a warm run simply repopulates a
   fresh subdirectory); it never corrupts it. *)

let stamp = "riq-sim-2026-10-17.1"

(* On-disk format of cache entries, independent of the simulator revision:
   bump when the marshalled [Outcome.t] layout changes. *)
let format_version = 4

(* The simulator-revision stamp folded into every job fingerprint and into
   the cache directory layout. Cached results are only reusable while the
   simulator produces bit-identical outputs for the same job, so this must
   be bumped whenever the timing model, the power model, the reference
   interpreter, the workload compiler or the statistics change meaning.
   Bumping it orphans the old cache tree (a warm run simply repopulates a
   fresh subdirectory); it never corrupts it. *)

let stamp = "riq-sim-2026-10-17.1"

(* On-disk format of cache entries, independent of the simulator revision:
   bump when the entry layout or the marshalled [Outcome.t] layout
   changes, or when the job fingerprint's image changes (it names every
   entry). 5: a checksummed text header precedes the payload. 6:
   [Outcome.error] gains [Accounting_mismatch]. 7: fingerprints hash a
   binary image instead of hex text. 8: a key is the MD5 of the program
   image's MD5 and the job's fields; data values enter as loaded 32-bit
   words. *)
let format_version = 8

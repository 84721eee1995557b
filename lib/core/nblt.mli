(** Non-bufferable loop table (Section 2.2.3).

    A small CAM holding the loop-ending-instruction addresses of the most
    recently identified non-bufferable loops, maintained as a FIFO. A loop
    whose ending address hits in the NBLT is not buffered, which
    eliminates the Loop-Buffering / Normal state thrashing on outer loops,
    loops with large embedded procedures, and early-exit loops.

    A zero-entry table is valid and never matches — used by the NBLT
    ablation experiment. *)

type t

val create : int -> t

val capacity : t -> int

val mem : t -> int -> bool
(** [mem t tail_pc] — CAM lookup by loop-ending instruction address. *)

val insert : t -> int -> bool
(** Register a non-bufferable loop; on overflow the oldest entry is
    evicted (FIFO). Re-inserting a present address refreshes nothing (the
    paper's table has no use for recency updates). Whether the address
    was newly registered: [false] when it was present or the table has no
    entries. *)

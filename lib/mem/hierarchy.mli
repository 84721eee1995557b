(** The full memory hierarchy of the modelled machine (Table 1 of the
    paper): split L1 instruction/data caches, a unified L2, separate
    instruction/data TLBs, and a DRAM latency model.

    The hierarchy answers latency queries for the pipeline and keeps the
    per-structure access counts the power model consumes. Data values are
    not handled here — simulators read/write their {!Store} directly and
    ask the hierarchy only "how long does this access take". *)

type config = {
  l0i : Cache.config option;
      (** optional filter cache between the fetch unit and the L1I
          (related-work baseline); a miss costs one extra cycle and then
          the normal L1I path *)
  l1i : Cache.config;
  l1d : Cache.config;
  l2 : Cache.config;
  itlb : Cache.config;
  dtlb : Cache.config;
  tlb_miss_penalty : int;
  mem_first_chunk : int; (** cycles to the first chunk from DRAM *)
  mem_next_chunk : int; (** cycles per additional chunk *)
  chunk_bytes : int;
}

val baseline : config
(** Table 1: 32 KiB 2-way L1I (1 cycle), 32 KiB 4-way L1D (1 cycle),
    256 KiB 4-way unified L2 (8 cycles), 16-set 4-way ITLB, 32-set 4-way
    DTLB with 4 KiB pages and a 30-cycle miss penalty, DRAM 80 cycles for
    the first chunk and 8 for each of the rest (8-byte chunks). *)

type t

val create : config -> t

val fetch_at : t -> now:int -> addr:int -> int
(** Latency in cycles of an instruction fetch at [addr] issued in cycle
    [now] (ITLB + L1I + L2 + DRAM as needed). In-flight line fills are
    modelled (MSHR-style): an access to a line whose fill is still pending
    waits for the remaining fill time instead of hitting instantly. The
    model assumes [now] never decreases from one access to the next. *)

val data_at : t -> now:int -> addr:int -> write:bool -> int
(** Latency in cycles of a data access issued in cycle [now]. Writes that
    miss allocate; their reported latency is 1 (write buffer), but the
    line fill still occurs and is charged to the counters. Pending fills
    as in {!fetch_at}. *)

val l0i : t -> Cache.t option
val l1i : t -> Cache.t
val l1d : t -> Cache.t
val l2 : t -> Cache.t
val itlb : t -> Cache.t
val dtlb : t -> Cache.t

val mem_accesses : t -> int
(** Number of DRAM line fills. *)

val reset_stats : t -> unit

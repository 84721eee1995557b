(** Set-associative cache timing model with true-LRU replacement.

    Models tags only — data contents live in {!Store}. A TLB is the same
    structure with the page size as its line size, so this module serves
    both. Write policy is write-back / write-allocate (the SimpleScalar
    default); dirty evictions are counted so the hierarchy can charge
    write-back traffic. *)

type config = {
  name : string;
  sets : int; (** power of two *)
  ways : int;
  line_bytes : int; (** power of two *)
  hit_latency : int; (** cycles *)
}

val config :
  name:string -> sets:int -> ways:int -> line_bytes:int -> hit_latency:int -> config
(** Validating constructor. *)

val size_bytes : config -> int

type t

type result =
  | Hit
  | Miss
  | Miss_dirty (** a miss whose victim was dirty and must be written back *)

val create : config -> t
val cfg : t -> config

val line_index : t -> addr:int -> int
(** The line index containing [addr] (i.e. [addr / line_bytes], computed
    with a shift for the common non-negative case). *)

val access : t -> addr:int -> write:bool -> result
(** Look up the line containing [addr]; on a miss the line is filled
    (allocated) and the LRU way of the set is evicted. [write] marks the
    line dirty. *)

val last_frame : t -> int
(** The frame the last {!access} hit or filled, [set * ways + way], in
    [\[0, sets * ways)]: a line stays in the frame its fill wrote until
    it is evicted, so a client can keep per-line state in an array
    indexed by frame. *)

val probe : t -> addr:int -> bool
(** Non-allocating lookup: true when the line is present. Does not perturb
    LRU state; used by tests. *)

val flush : t -> unit
(** Invalidate every line (dirty contents are discarded — data is always
    current in the backing store). *)

(** {2 Statistics} *)

val accesses : t -> int
val hits : t -> int
val misses : t -> int
val dirty_evictions : t -> int
val reset_stats : t -> unit

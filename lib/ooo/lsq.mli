(** Load/store queue.

    Slots are allocated in program order at dispatch and freed at commit
    (stores) or squash. Loads consult the queue for memory-order
    constraints: a load may access memory only when every older store has a
    resolved address (conservative disambiguation), and it forwards from
    the youngest older store with a matching address.

    Accesses carry a byte width (1, 2 or 4). Forwarding requires the
    store to match the load's address and width exactly; any other byte
    overlap makes the load wait until the store leaves the queue. *)

type entry = {
  mutable seq : int;
  mutable rob_idx : int;
  mutable is_store : bool;
  mutable is_fp : bool;
  mutable addr_ready : bool;
  mutable addr : int;
  mutable width : int; (** access footprint in bytes: 1, 2 or 4 *)
  mutable data_ready : bool; (** store data captured *)
  mutable data_tag : int; (** ROB index the store data waits on, or -1 *)
  mutable data_i : int; (** integer store data; the FP data is {!data_f} *)
  mutable live : bool;
}

type t

val create : int -> t
val count : t -> int
val is_full : t -> bool

val alloc : t -> int
(** Claim the tail slot (program order); returns its index. *)

val entry : t -> int -> entry

val data_f : t -> int -> float
(** FP store data of the slot at an index, kept in a float array beside
    the entries so every entry field is an immediate. *)

val set_data_f : t -> int -> float -> unit

val wait_data : t -> entry -> tag:int -> unit
(** Record that [entry], a live store, waits on ROB index [tag] for its
    data. Tag writes go through here (not the field): the queue counts
    each tag's waiters, so {!capture_data} visits no store when the
    broadcast tag has none and stops after its last one. *)

val load_wait : int
(** [-1]: an older store's address or matching data is unresolved. *)

val load_access : int
(** [-2]: no conflict, go to the data cache. *)

val check_load : t -> idx:int -> addr:int -> width:int -> int
(** Memory-order check for the load in slot [idx]: the index of the
    youngest older store with the same address and width and its data
    ready (forward from it), or {!load_wait} or {!load_access}. *)

val capture_data : t -> tag:int -> value_i:int -> value_f:float -> int
(** Result broadcast to stores whose data operand was pending: every live
    store waiting on [tag] captures the value. Returns how many did, so
    the pipeline can schedule their completion: {!captured} [k] for [k]
    below that count is the index of the [k]-th. *)

val captured : t -> int -> int

val head_is : t -> int -> bool
(** Whether [idx] is the oldest live slot (commit-order check). *)

val pop_head : t -> unit
val squash_after : t -> seq:int -> unit
(** Free every slot younger than [seq]. *)

val invariant : t -> (unit, string) result
(** [Ok ()] when the slots inside the occupied window are exactly the
    live ones, only live stores carry a data tag, and each tag's waiter
    count equals the stores waiting on it; otherwise the first violation
    found. Walks the whole queue: a check for tests, not the cycle loop. *)

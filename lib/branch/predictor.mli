open Riq_isa

(** The complete front-end branch prediction unit: a direction predictor
    (bimodal by default, gshare as an ablation), the branch target buffer,
    and the return address stack.

    The fetch stage calls {!lookup} once per control instruction; the
    writeback stage calls {!resolve} with the computed outcome. Access
    counts feed the power model — in the paper's Code Reuse state the
    lookup path is gated while resolve-time table updates continue. *)

type scheme = Bimodal | Gshare of { history_bits : int }

type config = {
  scheme : scheme;
  entries : int; (** direction table entries *)
  btb_sets : int;
  btb_ways : int;
  ras_size : int;
}

val baseline : config
(** Table 1: bimodal with 2048 entries, 512-set 4-way BTB, 8-entry RAS. *)

type t

val create : config -> t
val cfg : t -> config

type decision = {
  taken : bool;
  target : int option;
      (** Predicted next PC when taken; [None] when the unit has no target
          (BTB miss on an indirect jump) — the fetch stage must stall. *)
  used_ras : bool;
  btb_hit : bool;
}

val lookup : t -> pc:int -> insn:Insn.t -> decision
(** Consult the unit for the control instruction [insn] at [pc]. Calls and
    returns speculatively push/pop the RAS. Non-control instructions return
    a fall-through decision without touching any table. *)

val resolve : t -> pc:int -> insn:Insn.t -> taken:bool -> target:int -> unit
(** Train the unit with the architectural outcome. *)

val lookup_decoded : t -> pc:int -> kind:Insn.kind -> static_target:int -> int
(** Allocation-free {!lookup} for the packed fast path: the caller
    supplies the pre-decoded kind and statically-known taken target
    ([-1] = unknown), and gets the predicted next pc back directly
    ([-1] = no target, fetch must stall). Performs exactly the same table
    lookups and RAS operations (in the same order) as {!lookup}, so
    every access counter advances identically. *)

val resolve_decoded : t -> pc:int -> kind:Insn.kind -> taken:bool -> target:int -> unit
(** {!resolve} driven by a pre-decoded kind. *)

type checkpoint = int
(** Concrete so pipeline structures can store checkpoints in plain integer
    fields; treat the value as opaque. *)

val checkpoint : t -> checkpoint
(** Capture RAS state before a speculative control instruction. *)

val restore : t -> checkpoint -> unit

(** {2 Access statistics (power model inputs)} *)

val dir_lookups : t -> int
val dir_updates : t -> int
val btb_lookups : t -> int
val btb_updates : t -> int
val ras_ops : t -> int

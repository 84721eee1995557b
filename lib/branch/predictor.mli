open Riq_isa

(** The complete front-end branch prediction unit: a direction predictor
    (bimodal by default, gshare as an ablation), the branch target buffer,
    and the return address stack.

    The fetch stage calls {!lookup_decoded} once per control instruction;
    the writeback stage calls {!resolve_decoded} with the computed
    outcome. Access counts feed the power model — in the paper's Code
    Reuse state the lookup path is gated while resolve-time table updates
    continue. *)

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

val lookup_decoded : t -> pc:int -> kind:Insn.kind -> static_target:int -> int
(** Consult the unit for the control instruction at [pc], of pre-decoded
    [kind] and statically-known taken target ([-1] = unknown). Returns the
    predicted next pc ([-1] = no target, e.g. a BTB miss on an indirect
    jump: fetch must stall). Calls and returns speculatively push/pop the
    RAS; non-control kinds fall through to [pc + 4] without touching any
    table. Allocates nothing on the fetch path. *)

val resolve_decoded : t -> pc:int -> kind:Insn.kind -> taken:bool -> target:int -> unit
(** Train the unit with the architectural outcome. *)

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
val ras_ops : t -> int

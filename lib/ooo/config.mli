open Riq_mem
open Riq_branch

(** Machine configuration of the modelled superscalar processor.

    {!baseline} is Table 1 of the paper; the experiment sweeps derive the
    other configurations with {!with_iq_size} (which also sets
    ROB = issue queue size and LSQ = half of it, as the paper does). *)

type t = {
  fetch_queue : int; (** fetch buffer entries (4) *)
  fetch_width : int;
  decode_width : int;
  issue_width : int;
  commit_width : int;
  iq_entries : int;
  rob_entries : int;
  lsq_entries : int;
  n_ialu : int;
  n_imult : int;
  n_fpalu : int;
  n_fpmult : int;
  n_memport : int; (** L1D ports *)
  mem : Hierarchy.config;
  bpred : Predictor.config;
  reuse_enabled : bool; (** the paper's mechanism on/off *)
  nblt_entries : int; (** 0 disables the NBLT *)
  buffer_multiple_iterations : bool;
      (** Section 2.2.1: strategy 2 (true, the paper's choice) buffers
          iterations while they fit; strategy 1 (false) buffers exactly one
          iteration. *)
  loop_cache_entries : int;
      (** 0 disables. Related-work baseline (Lee/Moyer/Arends, ISLPED'99):
          a fetch-side buffer that captures short backward-branch loops and
          supplies instructions instead of the L1I — but, unlike the
          paper's issue-queue reuse, leaves branch prediction and decode
          running. *)
  skip_ahead : bool; (** Inert; see {!field-loop_ffwd}. *)
  loop_ffwd : bool;
      (** Inert: nothing in the simulator reads [skip_ahead] or
          [loop_ffwd], and both default to [false]. They switched two
          simulator-only fast paths that have been removed (DESIGN.md
          §9.5). The benchmark under [perfledger/] still sets them, so they
          stay until it no longer does. *)
}

val baseline : t
(** Table 1, reuse disabled (the conventional issue queue). *)

val reuse : t
(** Table 1 with the proposed issue queue enabled (8-entry NBLT,
    multiple-iteration buffering). *)

val loop_cache : int -> t
(** Table 1 with an [n]-entry loop cache instead of the reuse mechanism
    (related-work comparison). *)

val filter_cache : unit -> t
(** Table 1 with a 512-byte direct-mapped L0 instruction (filter) cache in
    front of the L1I (related-work comparison). *)

val with_iq_size : t -> int -> t
(** Scale the window: issue queue and ROB to [n], load/store queue to
    [n/2]. *)

val power_geometry : t -> Riq_power.Model.geometry

val validate : t -> unit
(** Raises [Invalid_argument] on inconsistent configurations. *)

val pp : Format.formatter -> t -> unit
(** Render the configuration as the paper's Table 1. *)

open Riq_mem
open Riq_branch

type geometry = {
  iq_entries : int;
  rob_entries : int;
  lsq_entries : int;
  fetch_width : int;
  issue_width : int;
  icache : Cache.config;
  dcache : Cache.config;
  l2 : Cache.config;
  itlb : Cache.config;
  dtlb : Cache.config;
  bpred : Predictor.config;
  nblt_entries : int;
  l0_icache : Cache.config option;
  loop_cache_entries : int; (* 0 = absent *)
}

let baseline_geometry =
  let h = Hierarchy.baseline in
  {
    iq_entries = 64;
    rob_entries = 64;
    lsq_entries = 32;
    fetch_width = 4;
    issue_width = 4;
    icache = h.Hierarchy.l1i;
    dcache = h.Hierarchy.l1d;
    l2 = h.Hierarchy.l2;
    itlb = h.Hierarchy.itlb;
    dtlb = h.Hierarchy.dtlb;
    bpred = Predictor.baseline;
    nblt_entries = 8;
    l0_icache = None;
    loop_cache_entries = 0;
  }

type t = {
  per_access : float array; (* indexed by Component.index *)
  per_idle : float array;
  clock : float;
}

(* Sub-linear growth of access energy with row count: decoders and bitline
   segmentation keep large arrays from costing linearly in rows. *)
let row_factor rows = 1.0 +. (0.1 *. sqrt (float_of_int rows))

(* Relative cost of one read of a set-associative cache: all ways of one
   set are read out in parallel (tag + data). *)
let cache_factor (c : Cache.config) =
  let data_bits = float_of_int (8 * c.Cache.line_bytes * c.Cache.ways) in
  let tag_bits = float_of_int (24 * c.Cache.ways) in
  (data_bits +. tag_bits) *. row_factor c.Cache.sets /. 1000.

let iq_issue_width = 4 (* nominal ports for idle-residual scaling *)

let create geometry =
  let g = geometry in
  let base = baseline_geometry in
  let per_access = Array.make Component.count 0. in
  let set c v = per_access.(Component.index c) <- v in
  let scale f = float_of_int f in
  (* Coefficients calibrated against the baseline breakdown; each entry is
     base-energy * (geometric factor relative to the Table 1 geometry). *)
  set Icache (11.0 *. (cache_factor g.icache /. cache_factor base.icache));
  (* Related-work fetch-side structures: a tiny filter cache costs a small
     fraction of an L1I access; a loop-cache read is a narrow RAM access. *)
  (match g.l0_icache with
  | Some c -> set L0cache (11.0 *. (cache_factor c /. cache_factor base.icache))
  | None -> set L0cache 0. (* absent: no energy, no idle residual *));
  set Loopcache
    (if g.loop_cache_entries > 0 then
       1.0 +. (0.1 *. sqrt (float_of_int g.loop_cache_entries))
     else 0.);
  set Dcache (14.0 *. (cache_factor g.dcache /. cache_factor base.dcache));
  set L2 (100.0 *. (cache_factor g.l2 /. cache_factor base.l2));
  set Itlb (1.2 *. (row_factor g.itlb.Cache.sets /. row_factor base.itlb.Cache.sets));
  set Dtlb (1.2 *. (row_factor g.dtlb.Cache.sets /. row_factor base.dtlb.Cache.sets));
  set Decoder 1.6;
  set Bpred_dir
    (1.9 *. (row_factor g.bpred.Predictor.entries /. row_factor base.bpred.Predictor.entries));
  set Btb
    (4.0
    *. (float_of_int g.bpred.Predictor.btb_ways /. float_of_int base.bpred.Predictor.btb_ways)
    *. (row_factor g.bpred.Predictor.btb_sets /. row_factor base.bpred.Predictor.btb_sets));
  set Ras 3.0;
  set Rename 0.8;
  (* Wakeup is a CAM: every entry compares the broadcast tag, so energy is
     linear in the number of entries. *)
  set Iq_wakeup (2.2 *. (scale g.iq_entries /. scale base.iq_entries));
  (* Payload RAM: wide entries whose read/write energy grows near-linearly
     with the entry count (one bank per block of entries). *)
  set Iq_payload (0.73 *. ((scale g.iq_entries /. scale base.iq_entries) ** 0.85));
  set Iq_select (1.1 *. (scale g.iq_entries /. scale base.iq_entries));
  set Lsq (3.75 *. (scale g.lsq_entries /. scale base.lsq_entries));
  set Rob (0.86 *. (row_factor g.rob_entries /. row_factor base.rob_entries));
  set Regfile 1.4;
  set Ialu 2.7;
  set Imult 12.0;
  set Fpalu 4.0;
  set Fpmult 8.0;
  set Resultbus 1.5;
  set Clock 0.;
  (* Overhead structures of the proposed design (Section 2.2): 17 bits per
     issue-queue entry of LRL storage, an 8-entry CAM for the NBLT, and the
     detector/reuse-pointer comparators. *)
  set Lrl (0.20 *. (scale g.iq_entries /. scale base.iq_entries));
  set Nblt (0.15 *. (scale g.nblt_entries /. scale base.nblt_entries));
  set Reuse_logic 0.30;
  (* Clock tree: a fixed trunk plus a small term that grows with the sized
     structures (window + ROB), charged once per cycle. *)
  let clock =
    26.0
    *. (0.90
       +. (0.05 *. (scale g.iq_entries /. scale base.iq_entries))
       +. (0.05 *. (scale g.rob_entries /. scale base.rob_entries)))
  in
  (* cc3 idle residual: 10 % of the nominal per-cycle maximum (access
     energy times nominal port count). *)
  let nominal_ports c =
    match c with
    | Component.Icache | L0cache | Loopcache | Itlb | Bpred_dir | Btb | Ras | Iq_select
    | Nblt | Reuse_logic ->
        1.
    | Decoder | Rename | Iq_payload | Rob | Lrl -> float_of_int g.fetch_width
    | Iq_wakeup | Resultbus -> float_of_int iq_issue_width
    | Regfile -> float_of_int (2 * g.issue_width)
    | Lsq | Dcache | Dtlb -> 2.
    | L2 -> 1.
    | Ialu -> 4.
    | Imult -> 1.
    | Fpalu -> 4.
    | Fpmult -> 1.
    | Clock -> 0.
  in
  let per_idle =
    Array.mapi
      (fun i e -> 0.10 *. e *. nominal_ports (Component.of_index i))
      per_access
  in
  { per_access; per_idle; clock }

let energy t c = t.per_access.(Component.index c)
let idle t c = t.per_idle.(Component.index c)
let clock_per_cycle t = t.clock
let iq_partial_update_fraction = 0.4

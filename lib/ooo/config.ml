open Riq_mem
open Riq_branch

type t = {
  fetch_queue : int;
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
  n_memport : int;
  mem : Hierarchy.config;
  bpred : Predictor.config;
  reuse_enabled : bool;
  nblt_entries : int;
  buffer_multiple_iterations : bool;
  loop_cache_entries : int;
  skip_ahead : bool;
  loop_ffwd : bool;
}

let baseline =
  {
    fetch_queue = 4;
    fetch_width = 4;
    decode_width = 4;
    issue_width = 4;
    commit_width = 4;
    iq_entries = 64;
    rob_entries = 64;
    lsq_entries = 32;
    n_ialu = 4;
    n_imult = 1;
    n_fpalu = 4;
    n_fpmult = 1;
    n_memport = 2;
    mem = Hierarchy.baseline;
    bpred = Predictor.baseline;
    reuse_enabled = false;
    nblt_entries = 8;
    buffer_multiple_iterations = true;
    loop_cache_entries = 0;
    skip_ahead = false;
    loop_ffwd = false;
  }

let reuse = { baseline with reuse_enabled = true }

let loop_cache n =
  if n < 4 then invalid_arg "Config.loop_cache: too small";
  { baseline with loop_cache_entries = n }

let filter_cache () =
  let l0 = Cache.config ~name:"il0" ~sets:16 ~ways:1 ~line_bytes:32 ~hit_latency:1 in
  { baseline with mem = { baseline.mem with Hierarchy.l0i = Some l0 } }

let with_iq_size t n =
  if n < 8 then invalid_arg "Config.with_iq_size: issue queue too small";
  { t with iq_entries = n; rob_entries = n; lsq_entries = max 4 (n / 2) }

let power_geometry t =
  {
    Riq_power.Model.iq_entries = t.iq_entries;
    rob_entries = t.rob_entries;
    lsq_entries = t.lsq_entries;
    fetch_width = t.fetch_width;
    issue_width = t.issue_width;
    icache = t.mem.Hierarchy.l1i;
    dcache = t.mem.Hierarchy.l1d;
    l2 = t.mem.Hierarchy.l2;
    itlb = t.mem.Hierarchy.itlb;
    dtlb = t.mem.Hierarchy.dtlb;
    bpred = t.bpred;
    nblt_entries = t.nblt_entries;
    l0_icache = t.mem.Hierarchy.l0i;
    loop_cache_entries = t.loop_cache_entries;
  }

let validate t =
  let pos name v = if v < 1 then invalid_arg ("Config: " ^ name ^ " must be positive") in
  pos "fetch_queue" t.fetch_queue;
  pos "fetch_width" t.fetch_width;
  pos "decode_width" t.decode_width;
  pos "issue_width" t.issue_width;
  pos "commit_width" t.commit_width;
  pos "iq_entries" t.iq_entries;
  pos "rob_entries" t.rob_entries;
  pos "lsq_entries" t.lsq_entries;
  pos "n_ialu" t.n_ialu;
  pos "n_imult" t.n_imult;
  pos "n_fpalu" t.n_fpalu;
  pos "n_fpmult" t.n_fpmult;
  pos "n_memport" t.n_memport;
  if t.nblt_entries < 0 then invalid_arg "Config: nblt_entries must be >= 0";
  if t.loop_cache_entries < 0 then invalid_arg "Config: loop_cache_entries must be >= 0";
  if t.reuse_enabled && t.loop_cache_entries > 0 then
    invalid_arg "Config: the reuse issue queue and the loop cache are alternatives";
  if t.rob_entries < t.iq_entries then
    invalid_arg "Config: ROB must be at least as large as the issue queue"

let pp ppf t =
  let cache_line name (c : Cache.config) =
    Format.asprintf "%s: %d KB, %d way, %d cycle%s" name
      (Cache.size_bytes c / 1024)
      c.Cache.ways c.Cache.hit_latency
      (if c.Cache.hit_latency > 1 then "s" else "")
  in
  Format.fprintf ppf "Issue Queue        %d entries@." t.iq_entries;
  Format.fprintf ppf "Load/Store Queue   %d entries@." t.lsq_entries;
  Format.fprintf ppf "ROB                %d entries@." t.rob_entries;
  Format.fprintf ppf "Fetch Queue        %d entries@." t.fetch_queue;
  Format.fprintf ppf "Fetch/Decode Width %d inst. per cycle@." t.fetch_width;
  Format.fprintf ppf "Issue/Commit Width %d inst. per cycle@." t.issue_width;
  Format.fprintf ppf "Function Units     %d IALU, %d IMULT, %d FPALU, %d FPMULT@." t.n_ialu
    t.n_imult t.n_fpalu t.n_fpmult;
  (match t.bpred.Predictor.scheme with
  | Predictor.Bimodal ->
      Format.fprintf ppf "Branch Predictor   bimod, %d entries, RAS %d entries@."
        t.bpred.Predictor.entries t.bpred.Predictor.ras_size
  | Predictor.Gshare { history_bits } ->
      Format.fprintf ppf "Branch Predictor   gshare, %d entries, %d-bit history, RAS %d@."
        t.bpred.Predictor.entries history_bits t.bpred.Predictor.ras_size);
  Format.fprintf ppf "BTB                %d set %d way assoc.@." t.bpred.Predictor.btb_sets
    t.bpred.Predictor.btb_ways;
  Format.fprintf ppf "%s@." (cache_line "L1 ICache" t.mem.Hierarchy.l1i);
  Format.fprintf ppf "%s@." (cache_line "L1 DCache" t.mem.Hierarchy.l1d);
  Format.fprintf ppf "%s@." (cache_line "L2 UCache" t.mem.Hierarchy.l2);
  Format.fprintf ppf "TLB                ITLB: %d set %d way, DTLB: %d set %d way@."
    t.mem.Hierarchy.itlb.Cache.sets t.mem.Hierarchy.itlb.Cache.ways
    t.mem.Hierarchy.dtlb.Cache.sets t.mem.Hierarchy.dtlb.Cache.ways;
  Format.fprintf ppf "                   4KB page size, %d cycle penalty@."
    t.mem.Hierarchy.tlb_miss_penalty;
  Format.fprintf ppf "Memory             %d cycles for first chunk, %d cycles the rest@."
    t.mem.Hierarchy.mem_first_chunk t.mem.Hierarchy.mem_next_chunk

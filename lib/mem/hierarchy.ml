type config = {
  l0i : Cache.config option;
  l1i : Cache.config;
  l1d : Cache.config;
  l2 : Cache.config;
  itlb : Cache.config;
  dtlb : Cache.config;
  tlb_miss_penalty : int;
  mem_first_chunk : int;
  mem_next_chunk : int;
  chunk_bytes : int;
}

let baseline =
  {
    l0i = None;
    (* 32 KiB, 2-way, 32 B lines -> 512 sets *)
    l1i = Cache.config ~name:"il1" ~sets:512 ~ways:2 ~line_bytes:32 ~hit_latency:1;
    (* 32 KiB, 4-way, 32 B lines -> 256 sets *)
    l1d = Cache.config ~name:"dl1" ~sets:256 ~ways:4 ~line_bytes:32 ~hit_latency:1;
    (* 256 KiB, 4-way, 64 B lines -> 1024 sets *)
    l2 = Cache.config ~name:"ul2" ~sets:1024 ~ways:4 ~line_bytes:64 ~hit_latency:8;
    itlb = Cache.config ~name:"itlb" ~sets:16 ~ways:4 ~line_bytes:4096 ~hit_latency:1;
    dtlb = Cache.config ~name:"dtlb" ~sets:32 ~ways:4 ~line_bytes:4096 ~hit_latency:1;
    tlb_miss_penalty = 30;
    mem_first_chunk = 80;
    mem_next_chunk = 8;
    chunk_bytes = 8;
  }

type t = {
  config : config;
  l0i : Cache.t option;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  itlb : Cache.t;
  dtlb : Cache.t;
  mutable n_mem : int;
  (* In-flight line fills, per L1, indexed by cache frame: the cycle the
     latest fill into that frame completes. A line that hits sits in the
     frame its latest fill wrote, so the frame's cycle is the line's. *)
  fill_i : int array;
  fill_d : int array;
}

let create (config : config) =
  let frames (c : Cache.config) = Array.make (c.sets * c.ways) 0 in
  {
    config;
    l0i = Option.map Cache.create config.l0i;
    l1i = Cache.create config.l1i;
    l1d = Cache.create config.l1d;
    l2 = Cache.create config.l2;
    itlb = Cache.create config.itlb;
    dtlb = Cache.create config.dtlb;
    n_mem = 0;
    fill_i = frames config.l1i;
    fill_d = frames config.l1d;
  }


let dram_latency t ~line_bytes =
  let chunks = max 1 (line_bytes / t.config.chunk_bytes) in
  t.config.mem_first_chunk + (t.config.mem_next_chunk * (chunks - 1))

(* A miss in [l1] goes to the L2; an L2 miss goes to DRAM. The L2 access is
   charged even for the write-back of a dirty L1 victim (one extra L2
   access, no added latency: write-back buffers hide it). *)
let l1_fill t ~addr ~l1 =
  let l2_part =
    match Cache.access t.l2 ~addr ~write:false with
    | Cache.Hit -> (Cache.cfg t.l2).hit_latency
    | Miss | Miss_dirty ->
        t.n_mem <- t.n_mem + 1;
        (Cache.cfg t.l2).hit_latency + dram_latency t ~line_bytes:(Cache.cfg t.l2).line_bytes
  in
  (Cache.cfg l1).hit_latency + l2_part

let through_l2 t ~addr ~write ~l1 =
  match Cache.access l1 ~addr ~write with
  | Cache.Hit -> (Cache.cfg l1).hit_latency
  | Miss -> l1_fill t ~addr ~l1
  | Miss_dirty ->
      ignore (Cache.access t.l2 ~addr ~write:true);
      l1_fill t ~addr ~l1

let tlb_latency t ~addr ~tlb =
  match Cache.access tlb ~addr ~write:false with
  | Cache.Hit -> 0
  | Miss | Miss_dirty -> t.config.tlb_miss_penalty

(* MSHR-style pending-fill adjustment: a miss registers the fill
   completion time in the frame it filled; a subsequent access to the
   same line before completion waits for the remaining time rather than
   hitting instantly. [raw_latency] is the access [l1] just made. *)
let with_pending_at ~fills ~l1 ~now raw_latency =
  let frame = Cache.last_frame l1 in
  if raw_latency > (Cache.cfg l1).Cache.hit_latency then begin
    fills.(frame) <- now + raw_latency;
    raw_latency
  end
  else
    let ready = fills.(frame) in
    if ready > now then ready - now else raw_latency

let l1i_path t ~now ~addr =
  let raw = through_l2 t ~addr ~write:false ~l1:t.l1i in
  with_pending_at ~fills:t.fill_i ~l1:t.l1i ~now raw

let fetch_at t ~now ~addr =
  (* With a filter cache, an L0 hit never touches the L1I; an L0 miss
     costs the L0 probe cycle and then the normal L1I path. *)
  let tlb = tlb_latency t ~addr ~tlb:t.itlb in
  match t.l0i with
  | None -> tlb + l1i_path t ~now ~addr
  | Some l0 -> (
      match Cache.access l0 ~addr ~write:false with
      | Cache.Hit -> tlb + (Cache.cfg l0).Cache.hit_latency
      | Miss | Miss_dirty -> tlb + (Cache.cfg l0).Cache.hit_latency + l1i_path t ~now ~addr)

let data_at t ~now ~addr ~write =
  let tlb = tlb_latency t ~addr ~tlb:t.dtlb in
  let raw = through_l2 t ~addr ~write ~l1:t.l1d in
  let access = with_pending_at ~fills:t.fill_d ~l1:t.l1d ~now raw in
  if write then 1 + tlb else tlb + access

let l0i t = t.l0i
let l1i t = t.l1i
let l1d t = t.l1d
let l2 t = t.l2
let itlb t = t.itlb
let dtlb t = t.dtlb
let mem_accesses t = t.n_mem

let reset_stats t =
  Cache.reset_stats t.l1i;
  Cache.reset_stats t.l1d;
  Cache.reset_stats t.l2;
  Cache.reset_stats t.itlb;
  Cache.reset_stats t.dtlb;
  t.n_mem <- 0

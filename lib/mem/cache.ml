open Riq_util

type config = {
  name : string;
  sets : int;
  ways : int;
  line_bytes : int;
  hit_latency : int;
}

let config ~name ~sets ~ways ~line_bytes ~hit_latency =
  if not (Bits.is_pow2 sets) then invalid_arg "Cache.config: sets must be a power of two";
  if not (Bits.is_pow2 line_bytes) then
    invalid_arg "Cache.config: line size must be a power of two";
  if ways < 1 then invalid_arg "Cache.config: ways must be >= 1";
  if hit_latency < 1 then invalid_arg "Cache.config: hit latency must be >= 1";
  { name; sets; ways; line_bytes; hit_latency }

let size_bytes c = c.sets * c.ways * c.line_bytes

type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable lru : int }

type t = {
  config : config;
  lines : line array; (* sets * ways, row-major by set *)
  (* Shift/mask forms of the (power-of-two) geometry: integer division by
     a runtime divisor is ~25 cycles on this core; a shift is one. *)
  line_shift : int;
  set_mask : int;
  set_shift : int;
  mutable clock : int; (* monotonic, for LRU ordering *)
  mutable frame : int; (* the last access's frame, [set * ways + way] *)
  mutable n_access : int;
  mutable n_hit : int;
  mutable n_dirty_evict : int;
}

type result = Hit | Miss | Miss_dirty

let create config =
  let n = config.sets * config.ways in
  {
    config;
    lines = Array.init n (fun _ -> { tag = 0; valid = false; dirty = false; lru = 0 });
    line_shift = Bits.log2 config.line_bytes;
    set_mask = config.sets - 1;
    set_shift = Bits.log2 config.sets;
    clock = 0;
    frame = 0;
    n_access = 0;
    n_hit = 0;
    n_dirty_evict = 0;
  }

let cfg t = t.config

(* Wrong-path address arithmetic can go negative; [lsr] and [/] disagree
   there, so fall back to the division (the branch predicts perfectly). *)
let line_index t ~addr =
  if addr >= 0 then addr lsr t.line_shift else addr / t.config.line_bytes

let tag_of t line_idx =
  if line_idx >= 0 then line_idx lsr t.set_shift else line_idx / t.config.sets

let set_and_tag t addr =
  let line_idx = line_index t ~addr in
  (line_idx land t.set_mask, tag_of t line_idx)

let access t ~addr ~write =
  t.n_access <- t.n_access + 1;
  t.clock <- t.clock + 1;
  let line_idx = line_index t ~addr in
  let set = line_idx land t.set_mask in
  let tag = tag_of t line_idx in
  let ways = t.config.ways in
  let base = set * ways in
  (* Imperative scans: local refs compile to stack mutables, so a hit
     allocates nothing. Tags are unique within a set, so the first match
     is the match. *)
  let hit = ref (-1) in
  let w = ref 0 in
  while !hit < 0 && !w < ways do
    let line = Array.unsafe_get t.lines (base + !w) in
    if line.valid && line.tag = tag then hit := base + !w else incr w
  done;
  if !hit >= 0 then begin
    let line = t.lines.(!hit) in
    t.n_hit <- t.n_hit + 1;
    t.frame <- !hit;
    line.lru <- t.clock;
    if write then line.dirty <- true;
    Hit
  end
  else begin
    (* Choose the eviction victim: an invalid way if any, else true LRU. *)
    let vi = ref base in
    for w = 1 to ways - 1 do
      let line = Array.unsafe_get t.lines (base + w) in
      let cur = t.lines.(!vi) in
      if (not line.valid) && cur.valid then vi := base + w
      else if (not cur.valid) || not line.valid then ()
      else if line.lru < cur.lru then vi := base + w
    done;
    let v = t.lines.(!vi) in
    let dirty_evict = v.valid && v.dirty in
    if dirty_evict then t.n_dirty_evict <- t.n_dirty_evict + 1;
    t.frame <- !vi;
    v.tag <- tag;
    v.valid <- true;
    v.dirty <- write;
    v.lru <- t.clock;
    if dirty_evict then Miss_dirty else Miss
  end

let last_frame t = t.frame

let probe t ~addr =
  let set, tag = set_and_tag t addr in
  let base = set * t.config.ways in
  let found = ref false in
  for w = 0 to t.config.ways - 1 do
    let line = t.lines.(base + w) in
    if line.valid && line.tag = tag then found := true
  done;
  !found

let flush t =
  Array.iter
    (fun line ->
      line.valid <- false;
      line.dirty <- false)
    t.lines

let accesses t = t.n_access
let hits t = t.n_hit
let misses t = t.n_access - t.n_hit
let dirty_evictions t = t.n_dirty_evict

let reset_stats t =
  t.n_access <- 0;
  t.n_hit <- 0;
  t.n_dirty_evict <- 0

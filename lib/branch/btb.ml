open Riq_util

type entry = { mutable tag : int; mutable target : int; mutable valid : bool; mutable lru : int }

type t = {
  sets : int;
  ways : int;
  table : entry array;
  mutable clock : int;
  mutable n_lookup : int;
}

let create ~sets ~ways =
  if not (Bits.is_pow2 sets) then invalid_arg "Btb.create: sets must be a power of two";
  if ways < 1 then invalid_arg "Btb.create: ways must be >= 1";
  {
    sets;
    ways;
    table =
      Array.init (sets * ways) (fun _ -> { tag = 0; target = 0; valid = false; lru = 0 });
    clock = 0;
    n_lookup = 0;
  }

(* Table index of the matching way (the last, should two match), or -1:
   a plain loop, so the lookup allocates neither an option nor a
   closure. *)
let find_idx t ~pc =
  let idx = pc lsr 2 in
  let set = idx land (t.sets - 1) in
  let tag = idx / t.sets in
  let base = set * t.ways in
  let found = ref (-1) in
  for w = 0 to t.ways - 1 do
    let e = t.table.(base + w) in
    if e.valid && e.tag = tag then found := base + w
  done;
  !found

let lookup_target t ~pc =
  t.n_lookup <- t.n_lookup + 1;
  t.clock <- t.clock + 1;
  let i = find_idx t ~pc in
  if i >= 0 then begin
    let e = t.table.(i) in
    e.lru <- t.clock;
    e.target
  end
  else -1

let update t ~pc ~target =
  t.clock <- t.clock + 1;
  let i = find_idx t ~pc in
  if i >= 0 then begin
    let e = t.table.(i) in
    e.target <- target;
    e.lru <- t.clock
  end
  else begin
    let idx = pc lsr 2 in
    let set = idx land (t.sets - 1) in
    let tag = idx / t.sets in
    let base = set * t.ways in
    let victim = ref t.table.(base) in
    for w = 1 to t.ways - 1 do
      let e = t.table.(base + w) in
      let v = !victim in
      if (not e.valid) && v.valid then victim := e
      else if v.valid && e.valid && e.lru < v.lru then victim := e
    done;
    let v = !victim in
    v.tag <- tag;
    v.target <- target;
    v.valid <- true;
    v.lru <- t.clock
  end

let lookups t = t.n_lookup

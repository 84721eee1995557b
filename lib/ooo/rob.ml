
type entry = {
  mutable seq : int;
  mutable pc : int;
  mutable wi : int;
  mutable completed : bool;
  mutable value_i : int;
  mutable dest : int;
  mutable is_store : bool;
  mutable lsq_idx : int;
  mutable is_ctrl : bool;
  mutable pred_npc : int;
  mutable actual_npc : int;
  mutable taken : bool;
  mutable ras_ck : int;
  mutable from_reuse : bool;
}

type t = {
  entries : entry array;
  value_f : float array; (* FP results, by index: unboxed, no write barrier *)
  size : int;
  mutable head : int;
  mutable tail : int; (* next free slot *)
  mutable count : int;
}

let fresh_entry () =
  {
    seq = -1;
    pc = 0;
    wi = -1;
    completed = false;
    value_i = 0;
    dest = -1;
    is_store = false;
    lsq_idx = -1;
    is_ctrl = false;
    pred_npc = 0;
    actual_npc = 0;
    taken = false;
    ras_ck = 0;
    from_reuse = false;
  }

let create size =
  if size < 1 then invalid_arg "Rob.create";
  {
    entries = Array.init size (fun _ -> fresh_entry ());
    value_f = Array.make size 0.;
    size;
    head = 0;
    tail = 0;
    count = 0;
  }

let count t = t.count
let is_full t = t.count = t.size
let is_empty t = t.count = 0

(* Ring steps wrap by comparison: a [mod] by the runtime size is an
   integer division. *)
let younger t idx = if idx + 1 = t.size then 0 else idx + 1
let older t idx = if idx = 0 then t.size - 1 else idx - 1

let alloc t =
  if is_full t then failwith "Rob.alloc: full";
  let idx = t.tail in
  t.tail <- younger t idx;
  t.count <- t.count + 1;
  idx

let entry t idx = t.entries.(idx)
let value_f t idx = t.value_f.(idx)
let set_value_f t idx v = t.value_f.(idx) <- v
let head t = t.head

let pop_head t =
  if is_empty t then failwith "Rob.pop_head: empty";
  t.entries.(t.head).seq <- -1;
  t.head <- younger t t.head;
  t.count <- t.count - 1

let squash_after t ~seq ~f =
  let continue_ = ref true in
  while !continue_ && t.count > 0 do
    let last = older t t.tail in
    let e = t.entries.(last) in
    if e.seq > seq then begin
      f last e;
      e.seq <- -1;
      t.tail <- last;
      t.count <- t.count - 1
    end
    else continue_ := false
  done

let iter_youngest_first t f =
  let idx = ref t.tail in
  for _ = 1 to t.count do
    idx := older t !idx;
    f !idx t.entries.(!idx)
  done

let iter_oldest_first t f =
  let idx = ref t.head in
  for _ = 1 to t.count do
    f !idx t.entries.(!idx);
    idx := younger t !idx
  done

type entry = {
  mutable seq : int;
  mutable rob_idx : int;
  mutable is_store : bool;
  mutable is_fp : bool;
  mutable addr_ready : bool;
  mutable addr : int;
  mutable width : int;
  mutable data_ready : bool;
  mutable data_tag : int;
  mutable data_i : int;
  mutable live : bool;
}

type t = {
  arr : entry array;
  data_f : float array; (* FP store data, by index *)
  captured : int array; (* indices the last {!capture_data} filled *)
  size : int;
  mutable head : int;
  mutable tail : int;
  mutable count : int;
  mutable n_tagged : int; (* live stores with an outstanding data tag *)
}

let fresh () =
  {
    seq = -1;
    rob_idx = -1;
    is_store = false;
    is_fp = false;
    addr_ready = false;
    addr = 0;
    width = 4;
    data_ready = false;
    data_tag = -1;
    data_i = 0;
    live = false;
  }

let create size =
  if size < 1 then invalid_arg "Lsq.create";
  {
    arr = Array.init size (fun _ -> fresh ());
    data_f = Array.make size 0.;
    captured = Array.make size 0;
    size;
    head = 0;
    tail = 0;
    count = 0;
    n_tagged = 0;
  }

let size t = t.size
let count t = t.count
let is_full t = t.count = t.size

let alloc t =
  if is_full t then failwith "Lsq.alloc: full";
  let idx = t.tail in
  let e = t.arr.(idx) in
  e.live <- true;
  e.addr_ready <- false;
  e.width <- 4;
  e.data_ready <- false;
  e.data_tag <- -1;
  t.tail <- (t.tail + 1) mod t.size;
  t.count <- t.count + 1;
  idx

let entry t idx = t.arr.(idx)
let data_f t idx = t.data_f.(idx)
let set_data_f t idx v = t.data_f.(idx) <- v

(* Tag writes go through here so {!capture_data} can skip its walk when
   no store is waiting on a broadcast at all (the common case). *)
let wait_data t e ~tag =
  e.data_tag <- tag;
  t.n_tagged <- t.n_tagged + 1

let untag t e =
  if e.data_tag >= 0 then begin
    e.data_tag <- -1;
    t.n_tagged <- t.n_tagged - 1
  end

let load_wait = -1
let load_access = -2
let overlaps a aw b bw = a < b + bw && b < a + aw

let check_load t ~idx ~addr ~width =
  (* Walk from the slot just older than [idx] back to the head. *)
  let result = ref load_access in
  let pos = ref ((idx + t.size - 1) mod t.size) in
  let continue_ = ref (t.count > 0 && idx <> t.head) in
  while !continue_ do
    let e = t.arr.(!pos) in
    if e.live && e.is_store then begin
      if not e.addr_ready then begin
        result := load_wait;
        continue_ := false
      end
      else if e.addr = addr && e.width = width then begin
        result := (if e.data_ready then !pos else load_wait);
        continue_ := false
      end
      else if overlaps e.addr e.width addr width then begin
        (* Partial overlap: no forwarding path; wait until the store
           commits and leaves the queue. *)
        result := load_wait;
        continue_ := false
      end
    end;
    if !continue_ then begin
      if !pos = t.head then continue_ := false
      else pos := (!pos + t.size - 1) mod t.size
    end
  done;
  !result

let capture_data t ~tag ~value_i ~value_f =
  (* Only live entries can wait on a tag, so walk the occupied window;
     capture order is irrelevant downstream (distinct sequence numbers). *)
  if t.n_tagged = 0 then 0
  else begin
    let n = ref 0 in
    let pos = ref t.head in
    for _ = 1 to t.count do
      let e = t.arr.(!pos) in
      if e.is_store && e.data_tag = tag then begin
        e.data_tag <- -1;
        t.n_tagged <- t.n_tagged - 1;
        e.data_ready <- true;
        e.data_i <- value_i;
        t.data_f.(!pos) <- value_f;
        t.captured.(!n) <- !pos;
        incr n
      end;
      pos := !pos + 1;
      if !pos = t.size then pos := 0
    done;
    !n
  end

let captured t k = t.captured.(k)

let head_is t idx = t.count > 0 && idx = t.head

let pop_head t =
  if t.count = 0 then failwith "Lsq.pop_head: empty";
  untag t t.arr.(t.head);
  t.arr.(t.head).live <- false;
  t.arr.(t.head).seq <- -1;
  t.head <- (t.head + 1) mod t.size;
  t.count <- t.count - 1

let squash_after t ~seq =
  let continue_ = ref true in
  while !continue_ && t.count > 0 do
    let last = (t.tail + t.size - 1) mod t.size in
    let e = t.arr.(last) in
    if e.live && e.seq > seq then begin
      untag t e;
      e.live <- false;
      e.seq <- -1;
      t.tail <- last;
      t.count <- t.count - 1
    end
    else continue_ := false
  done

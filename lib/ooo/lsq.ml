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
  (* By tag: how many live stores wait on it for their data, so a
     broadcast visits only its own waiters. Grows to the largest tag. *)
  mutable waiting : int array;
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
    waiting = Array.make 64 0;
  }

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
  t.tail <- (if idx + 1 = t.size then 0 else idx + 1);
  t.count <- t.count + 1;
  idx

let entry t idx = t.arr.(idx)
let data_f t idx = t.data_f.(idx)
let set_data_f t idx v = t.data_f.(idx) <- v

let untag t e =
  let tag = e.data_tag in
  if tag >= 0 then begin
    e.data_tag <- -1;
    t.waiting.(tag) <- t.waiting.(tag) - 1
  end

(* Tags are ROB indices; the counts grow to cover whatever tag range the
   client uses, as the issue queue's waiter lists do. *)
let grow_tags t tag =
  let n = Array.length t.waiting in
  let m = ref n in
  while tag >= !m do
    m := !m * 2
  done;
  let waiting = Array.make !m 0 in
  Array.blit t.waiting 0 waiting 0 n;
  t.waiting <- waiting

(* Tag writes go through here so each tag's count stays exact. *)
let wait_data t e ~tag =
  untag t e;
  if tag >= Array.length t.waiting then grow_tags t tag;
  e.data_tag <- tag;
  t.waiting.(tag) <- t.waiting.(tag) + 1

let load_wait = -1
let load_access = -2
let overlaps a aw b bw = a < b + bw && b < a + aw

(* Ring steps wrap by comparison: a [mod] by the runtime size is an
   integer division. *)
let older t pos = if pos = 0 then t.size - 1 else pos - 1

let check_load t ~idx ~addr ~width =
  (* Walk from the slot just older than [idx] back to the head. *)
  let result = ref load_access in
  let pos = ref (older t idx) in
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
      else pos := older t !pos
    end
  done;
  !result

let capture_data t ~tag ~value_i ~value_f =
  (* Walk from the head until the tag's last waiter: only live stores
     wait on a tag, so the walk stays inside the occupied window, and it
     captures in queue order. *)
  if tag < 0 || tag >= Array.length t.waiting || t.waiting.(tag) = 0 then 0
  else begin
    let left = ref t.waiting.(tag) in
    t.waiting.(tag) <- 0;
    let n = ref 0 in
    let pos = ref t.head in
    let seen = ref 0 in
    while !left > 0 && !seen < t.count do
      let e = t.arr.(!pos) in
      if e.data_tag = tag then begin
        e.data_tag <- -1;
        e.data_ready <- true;
        e.data_i <- value_i;
        t.data_f.(!pos) <- value_f;
        t.captured.(!n) <- !pos;
        incr n;
        decr left
      end;
      incr seen;
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
  t.head <- (if t.head + 1 = t.size then 0 else t.head + 1);
  t.count <- t.count - 1

let squash_after t ~seq =
  let continue_ = ref true in
  while !continue_ && t.count > 0 do
    let last = older t t.tail in
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

let invariant t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let live_at k = (k - t.head + t.size) mod t.size < t.count in
  let counted = Array.make (Array.length t.waiting) 0 in
  let rec scan k =
    if k = t.size then Ok ()
    else begin
      let e = t.arr.(k) in
      let live = live_at k in
      if e.live <> live then fail "slot %d: live %b inside the window %b" k e.live live
      else if e.data_tag >= 0 && not (live && e.is_store) then
        fail "slot %d: tag %d on a slot that is not a live store" k e.data_tag
      else if e.data_tag >= Array.length t.waiting then
        fail "slot %d: tag %d beyond the counts" k e.data_tag
      else begin
        if e.data_tag >= 0 then counted.(e.data_tag) <- counted.(e.data_tag) + 1;
        scan (k + 1)
      end
    end
  in
  let rec compare_counts tag =
    if tag = Array.length t.waiting then Ok ()
    else if counted.(tag) <> t.waiting.(tag) then
      fail "tag %d: count %d, waiting stores %d" tag t.waiting.(tag) counted.(tag)
    else compare_counts (tag + 1)
  in
  if t.count < 0 || t.count > t.size then fail "count %d outside [0, %d]" t.count t.size
  else if (t.head + t.count) mod t.size <> t.tail then
    fail "head %d + count %d does not reach tail %d" t.head t.count t.tail
  else Result.bind (scan 0) (fun () -> compare_counts 0)

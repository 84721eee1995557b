open Riq_isa

type slot = {
  id : int;
  mutable seq : int;
  mutable rob_idx : int;
  mutable pc : int;
  mutable wi : int;
  mutable fu : Insn.fu_class;
  mutable lat : int;
  mutable pipe : bool;
  mutable is_mem : bool;
  mutable is_store : bool;
  mutable src1_tag : int;
  mutable src1_i : int;
  mutable src2_tag : int;
  mutable src2_i : int;
  mutable issued : bool;
  mutable reusable : bool;
  mutable dead : bool;
  mutable pred_npc : int;
}

(* Every field of [slot] and every link is an immediate, so the cycle
   loop's stores into the queue pay no write barrier. A slot's two source
   operands are the waiter-list nodes [2 * id] (first) and [2 * id + 1]
   (second). Link values: a node or id, [nil] for the end of a list, and
   [off] in a [next] cell for "not on the list". *)
let nil = -1
let off = -2

type t = {
  pool : slot array; (* indexed by id, never permuted *)
  order : int array; (* ids: [0, count) live oldest-first, the rest free *)
  size : int;
  mutable count : int;
  mutable rptr : int;
  src_f : float array; (* FP operand values, by node *)
  (* Per-tag waiter lists of operand nodes: the set {!wakeup} walks for a
     tag. A node is on the list of the tag its slot field names. *)
  w_next : int array;
  w_prev : int array;
  mutable w_head : int array; (* by tag *)
  mutable w_tail : int array;
  (* The ready list, by id: unissued live slots whose operands are
     select-ready, the set the issue stage walks. A store with its address
     operand ready but its data still in flight is on both a waiter list
     and the ready list. *)
  r_next : int array;
  r_prev : int array;
  mutable r_head : int;
  mutable r_tail : int;
  mutable n_dead : int; (* dead slots within [0, count): compact's work *)
}

let fresh_slot id =
  {
    id;
    seq = -1;
    rob_idx = -1;
    pc = 0;
    wi = -1;
    fu = Insn.FU_none;
    lat = 1;
    pipe = true;
    is_mem = false;
    is_store = false;
    src1_tag = -1;
    src1_i = 0;
    src2_tag = -1;
    src2_i = 0;
    issued = false;
    reusable = false;
    dead = false;
    pred_npc = 0;
  }

let create size =
  if size < 1 then invalid_arg "Iq.create";
  {
    pool = Array.init size fresh_slot;
    order = Array.init size Fun.id;
    size;
    count = 0;
    rptr = 0;
    src_f = Array.make (2 * size) 0.;
    w_next = Array.make (2 * size) off;
    w_prev = Array.make (2 * size) nil;
    w_head = Array.make 64 nil;
    w_tail = Array.make 64 nil;
    r_next = Array.make size off;
    r_prev = Array.make size nil;
    r_head = nil;
    r_tail = nil;
    n_dead = 0;
  }

let count t = t.count
let free t = t.size - t.count
let is_full t = t.count = t.size
let slots t = t.pool
let at t i = t.pool.(t.order.(i))
let src1_f t s = t.src_f.(2 * s.id)
let src2_f t s = t.src_f.((2 * s.id) + 1)

let set_src t s ~port ~tag ~value_i ~value_f =
  if port = 0 then begin
    s.src1_tag <- tag;
    s.src1_i <- value_i
  end
  else begin
    s.src2_tag <- tag;
    s.src2_i <- value_i
  end;
  t.src_f.((2 * s.id) + port) <- value_f

let ready_first t = t.r_head
let ready_next t id = t.r_next.(id)

(* Tags are ROB indices; the list ends grow to cover whatever tag range
   the client uses. *)
let grow_tags t tag =
  let n = Array.length t.w_head in
  let m = ref n in
  while tag >= !m do
    m := !m * 2
  done;
  let head = Array.make !m nil and tail = Array.make !m nil in
  Array.blit t.w_head 0 head 0 n;
  Array.blit t.w_tail 0 tail 0 n;
  t.w_head <- head;
  t.w_tail <- tail

let wait_link t node tag =
  if tag >= Array.length t.w_head then grow_tags t tag;
  let last = t.w_tail.(tag) in
  t.w_prev.(node) <- last;
  t.w_next.(node) <- nil;
  if last = nil then t.w_head.(tag) <- node else t.w_next.(last) <- node;
  t.w_tail.(tag) <- node

(* Only ever called while [node] is linked, so [tag] (read from the slot)
   is still the tag whose list it is on: tags change only while a slot
   is off the lists. *)
let wait_unlink t node tag =
  let p = t.w_prev.(node) and n = t.w_next.(node) in
  if p = nil then t.w_head.(tag) <- n else t.w_next.(p) <- n;
  if n = nil then t.w_tail.(tag) <- p else t.w_prev.(n) <- p;
  t.w_next.(node) <- off

let ready_append t id =
  let last = t.r_tail in
  t.r_prev.(id) <- last;
  t.r_next.(id) <- nil;
  if last = nil then t.r_head <- id else t.r_next.(last) <- id;
  t.r_tail <- id

let ready_unlink t id =
  let p = t.r_prev.(id) and n = t.r_next.(id) in
  if p = nil then t.r_head <- n else t.r_next.(p) <- n;
  if n = nil then t.r_tail <- p else t.r_prev.(n) <- p;
  t.r_next.(id) <- off

let unlink t s =
  let node = 2 * s.id in
  if t.w_next.(node) <> off then wait_unlink t node s.src1_tag;
  if t.w_next.(node + 1) <> off then wait_unlink t (node + 1) s.src2_tag;
  if t.r_next.(s.id) <> off then ready_unlink t s.id

let dispatch t =
  if is_full t then failwith "Iq.dispatch: full";
  let s = t.pool.(t.order.(t.count)) in
  t.count <- t.count + 1;
  s.dead <- false;
  s.issued <- false;
  s.reusable <- false;
  s

(* Classify a slot onto the waiter lists and/or ready list once its
   source tags are known. A store is select-ready as soon as its address
   operand resolves: the data operand rides along as a tag on the
   address-generation event. *)
let enqueue t s =
  if s.src1_tag >= 0 then wait_link t (2 * s.id) s.src1_tag;
  if s.src2_tag >= 0 then wait_link t ((2 * s.id) + 1) s.src2_tag;
  if s.src1_tag < 0 && (s.src2_tag < 0 || s.is_store) then ready_append t s.id

let mark_issued t s =
  s.issued <- true;
  unlink t s

(* Reuse-path partial update: an issued buffered slot is renamed back to
   a fresh in-flight instance; the caller has already refreshed the
   source tags. *)
let mark_renamed t s =
  s.issued <- false;
  enqueue t s

let kill t s =
  if not s.dead then begin
    s.dead <- true;
    t.n_dead <- t.n_dead + 1
  end;
  unlink t s

let wakeup t ~tag ~value_i ~value_f =
  (* Issued slots' sources are re-read at their next rename and are never
     linked, so every node on the list belongs to a slot waiting on [tag]. *)
  if tag < Array.length t.w_head then begin
    let node = ref t.w_head.(tag) in
    while !node <> nil do
      let k = !node in
      node := t.w_next.(k);
      t.w_next.(k) <- off;
      t.src_f.(k) <- value_f;
      let s = t.pool.(k lsr 1) in
      if k land 1 = 0 then begin
        s.src1_tag <- -1;
        s.src1_i <- value_i;
        if (s.src2_tag < 0 || s.is_store) && t.r_next.(s.id) = off then ready_append t s.id
      end
      else begin
        s.src2_tag <- -1;
        s.src2_i <- value_i;
        if s.src1_tag < 0 && t.r_next.(s.id) = off then ready_append t s.id
      end
    done;
    t.w_head.(tag) <- nil;
    t.w_tail.(tag) <- nil
  end

let compact t =
  if t.n_dead = 0 then 0
  else begin
    let order = t.order in
    let orig_rptr = t.rptr in
    let dead_before = ref 0 in
    let w = ref 0 in
    for r = 0 to t.count - 1 do
      let id = order.(r) in
      if t.pool.(id).dead then begin
        if r < orig_rptr then incr dead_before
      end
      else begin
        if !w <> r then begin
          (* Positions [w, r) hold dead ids; swap so every id stays in
             [order] exactly once. *)
          order.(r) <- order.(!w);
          order.(!w) <- id
        end;
        incr w
      end
    done;
    let removed = t.count - !w in
    t.count <- !w;
    t.n_dead <- 0;
    t.rptr <- orig_rptr - !dead_before;
    if t.rptr > t.count || t.rptr < 0 then t.rptr <- 0;
    removed
  end

let reuse_ptr t = t.rptr
let set_reuse_ptr t i = t.rptr <- i

let first_reusable t =
  let i = ref 0 in
  while !i < t.count && not (at t !i).reusable do
    incr i
  done;
  if !i < t.count then !i else -1

let clear_classification t =
  for i = 0 to t.count - 1 do
    let s = at t i in
    if s.reusable then begin
      s.reusable <- false;
      if s.issued then kill t s
    end
  done

let clear t =
  (* Unlink everything before dropping the slots. *)
  for i = 0 to t.count - 1 do
    unlink t (at t i)
  done;
  t.count <- 0;
  t.rptr <- 0;
  t.n_dead <- 0

let squash_after t ~seq =
  for i = 0 to t.count - 1 do
    let s = at t i in
    if (not s.dead) && s.seq > seq then begin
      if s.reusable then begin
        (* The in-flight instance dies but the buffered instruction
           remains; it is as if its last instance had already issued. *)
        if not s.issued then mark_issued t s
      end
      else kill t s
    end
  done

let waiters t ~tag =
  let rec walk node acc =
    if node = nil then List.rev acc
    else walk t.w_next.(node) ((t.pool.(node lsr 1), node land 1) :: acc)
  in
  if tag < 0 || tag >= Array.length t.w_head then [] else walk t.w_head.(tag) []

open Riq_isa
open Riq_ooo

(* ---- Config ---- *)

let test_config_scaling () =
  let c = Config.with_iq_size Config.baseline 128 in
  Alcotest.(check int) "iq" 128 c.Config.iq_entries;
  Alcotest.(check int) "rob" 128 c.Config.rob_entries;
  Alcotest.(check int) "lsq" 64 c.Config.lsq_entries;
  Config.validate c;
  Alcotest.(check bool) "reuse flag" true Config.reuse.Config.reuse_enabled;
  Alcotest.(check bool) "baseline flag" false Config.baseline.Config.reuse_enabled

let test_config_validation () =
  Alcotest.(check bool) "rob < iq rejected" true
    (try
       Config.validate { Config.baseline with Config.rob_entries = 8 };
       false
     with Invalid_argument _ -> true)

(* ---- Rob ---- *)

let fill_entry rob ~seq ~dest =
  let idx = Rob.alloc rob in
  let e = Rob.entry rob idx in
  e.Rob.seq <- seq;
  e.Rob.dest <- dest;
  e.Rob.completed <- false;
  idx

let test_rob_fifo () =
  let rob = Rob.create 4 in
  Alcotest.(check bool) "empty" true (Rob.is_empty rob);
  let i1 = fill_entry rob ~seq:1 ~dest:3 in
  let _ = fill_entry rob ~seq:2 ~dest:4 in
  Alcotest.(check int) "count" 2 (Rob.count rob);
  Alcotest.(check int) "head" i1 (Rob.head rob);
  Rob.pop_head rob;
  Alcotest.(check int) "after pop" 1 (Rob.count rob)

let test_rob_full () =
  let rob = Rob.create 2 in
  ignore (fill_entry rob ~seq:1 ~dest:(-1));
  ignore (fill_entry rob ~seq:2 ~dest:(-1));
  Alcotest.(check bool) "full" true (Rob.is_full rob);
  Alcotest.(check bool) "alloc raises" true
    (try
       ignore (Rob.alloc rob);
       false
     with Failure _ -> true)

let test_rob_wraparound () =
  let rob = Rob.create 3 in
  for k = 1 to 10 do
    let idx = fill_entry rob ~seq:k ~dest:(-1) in
    Alcotest.(check int) "seq stored" k (Rob.entry rob idx).Rob.seq;
    Rob.pop_head rob
  done;
  Alcotest.(check bool) "empty after" true (Rob.is_empty rob)

let test_rob_squash () =
  let rob = Rob.create 8 in
  ignore (fill_entry rob ~seq:1 ~dest:1);
  ignore (fill_entry rob ~seq:2 ~dest:2);
  ignore (fill_entry rob ~seq:3 ~dest:3);
  ignore (fill_entry rob ~seq:4 ~dest:4);
  let squashed = ref [] in
  Rob.squash_after rob ~seq:2 ~f:(fun _ e -> squashed := e.Rob.seq :: !squashed);
  Alcotest.(check (list int)) "youngest first order" [ 3; 4 ] !squashed;
  Alcotest.(check int) "survivors" 2 (Rob.count rob);
  (* tail reuse after squash *)
  let idx = fill_entry rob ~seq:5 ~dest:5 in
  Alcotest.(check int) "realloc" 5 (Rob.entry rob idx).Rob.seq

let test_rob_iteration () =
  let rob = Rob.create 4 in
  ignore (fill_entry rob ~seq:1 ~dest:(-1));
  ignore (fill_entry rob ~seq:2 ~dest:(-1));
  ignore (fill_entry rob ~seq:3 ~dest:(-1));
  let oldest = ref [] in
  Rob.iter_oldest_first rob (fun _ e -> oldest := e.Rob.seq :: !oldest);
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] (List.rev !oldest);
  let youngest = ref [] in
  Rob.iter_youngest_first rob (fun _ e -> youngest := e.Rob.seq :: !youngest);
  Alcotest.(check (list int)) "youngest first" [ 3; 2; 1 ] (List.rev !youngest)

(* ---- Iq ---- *)

let dispatch_simple iq ~seq ~reusable ~ready =
  let s = Iq.dispatch iq in
  s.Iq.seq <- seq;
  s.Iq.wi <- -1;
  s.Iq.src1_tag <- (if ready then -1 else seq + 100);
  s.Iq.src2_tag <- -1;
  s.Iq.reusable <- reusable;
  s.Iq.pred_npc <- 0;
  Iq.enqueue iq s;
  s

let test_iq_dispatch_compact () =
  let iq = Iq.create 4 in
  let s1 = dispatch_simple iq ~seq:1 ~reusable:false ~ready:true in
  let _s2 = dispatch_simple iq ~seq:2 ~reusable:false ~ready:true in
  Alcotest.(check int) "count" 2 (Iq.count iq);
  Iq.kill iq s1;
  let removed = Iq.compact iq in
  Alcotest.(check int) "removed" 1 removed;
  Alcotest.(check int) "count after" 1 (Iq.count iq);
  Alcotest.(check int) "survivor shifted" 2 (Iq.at iq 0).Iq.seq

let test_iq_wakeup () =
  let iq = Iq.create 4 in
  (* dispatch_simple with ~ready:false leaves the slot waiting on tag
     [seq + 100]; tags must be final before enqueue links the slot. *)
  let s = dispatch_simple iq ~seq:1 ~reusable:false ~ready:false in
  Iq.wakeup iq ~tag:101 ~value_i:42 ~value_f:1.5;
  Alcotest.(check int) "tag cleared" (-1) s.Iq.src1_tag;
  Alcotest.(check int) "value captured" 42 s.Iq.src1_i;
  (* issued entries are unlinked and are not woken *)
  let s2 = dispatch_simple iq ~seq:2 ~reusable:true ~ready:false in
  Iq.mark_issued iq s2;
  Iq.wakeup iq ~tag:102 ~value_i:1 ~value_f:0.;
  Alcotest.(check int) "issued untouched" 102 s2.Iq.src1_tag

let test_iq_classification () =
  let iq = Iq.create 8 in
  let s1 = dispatch_simple iq ~seq:1 ~reusable:true ~ready:true in
  Iq.mark_issued iq s1;
  let s2 = dispatch_simple iq ~seq:2 ~reusable:true ~ready:true in
  s2.Iq.issued <- false;
  Iq.clear_classification iq;
  Alcotest.(check bool) "issued reusable dies" true s1.Iq.dead;
  Alcotest.(check bool) "live instance survives" false s2.Iq.dead;
  Alcotest.(check bool) "classification cleared" false s2.Iq.reusable

let test_iq_squash () =
  let iq = Iq.create 8 in
  let s1 = dispatch_simple iq ~seq:1 ~reusable:false ~ready:true in
  let s2 = dispatch_simple iq ~seq:5 ~reusable:false ~ready:true in
  let s3 = dispatch_simple iq ~seq:6 ~reusable:true ~ready:true in
  s3.Iq.issued <- false;
  Iq.squash_after iq ~seq:4;
  Alcotest.(check bool) "older survives" false s1.Iq.dead;
  Alcotest.(check bool) "younger conventional dies" true s2.Iq.dead;
  Alcotest.(check bool) "younger reusable kept" false s3.Iq.dead;
  Alcotest.(check bool) "reusable reset to issued" true s3.Iq.issued

let test_iq_reuse_ptr_compact () =
  let iq = Iq.create 8 in
  let s1 = dispatch_simple iq ~seq:1 ~reusable:false ~ready:true in
  let _s2 = dispatch_simple iq ~seq:2 ~reusable:true ~ready:true in
  let _s3 = dispatch_simple iq ~seq:3 ~reusable:true ~ready:true in
  Iq.set_reuse_ptr iq 2;
  Iq.kill iq s1;
  ignore (Iq.compact iq);
  (* the pointer must still reference the same slot (now index 1) *)
  Alcotest.(check int) "pointer adjusted" 1 (Iq.reuse_ptr iq);
  Alcotest.(check int) "points at seq 3" 3 (Iq.at iq (Iq.reuse_ptr iq)).Iq.seq

let test_iq_first_reusable () =
  let iq = Iq.create 8 in
  ignore (dispatch_simple iq ~seq:1 ~reusable:false ~ready:true);
  Alcotest.(check int) "none" (-1) (Iq.first_reusable iq);
  ignore (dispatch_simple iq ~seq:2 ~reusable:true ~ready:true);
  Alcotest.(check int) "found" 1 (Iq.first_reusable iq)

(* A lazy end-of-cycle step frees the occupancy but leaves the dead slots
   in the age order; once every position is taken, [dispatch] must
   collapse the order itself before it can claim one. *)
let test_iq_dispatch_walks () =
  let iq = Iq.create 4 in
  let s = Array.init 4 (fun i -> dispatch_simple iq ~seq:(i + 1) ~reusable:false ~ready:true) in
  Iq.kill iq s.(0);
  Iq.kill iq s.(2);
  Alcotest.(check bool) "kills occupy until the cycle ends" true (Iq.is_full iq);
  Alcotest.(check int) "lazy step retires two" 2 (Iq.end_cycle iq ~positions:false);
  Alcotest.(check int) "count" 2 (Iq.count iq);
  Alcotest.(check int) "free" 2 (Iq.free iq);
  Alcotest.(check int) "dead slot keeps its position" 1 (Iq.at iq 0).Iq.seq;
  let s5 = dispatch_simple iq ~seq:5 ~reusable:false ~ready:true in
  let s6 = dispatch_simple iq ~seq:6 ~reusable:false ~ready:true in
  Alcotest.(check bool) "full again" true (Iq.is_full iq);
  Alcotest.(check (list int)) "age order collapsed, then appended" [ 2; 4; 5; 6 ]
    (List.init (Iq.count iq) (fun i -> (Iq.at iq i).Iq.seq));
  Alcotest.(check (list int)) "freed slots reclaimed"
    (List.sort compare [ s.(0).Iq.id; s.(2).Iq.id ])
    (List.sort compare [ s5.Iq.id; s6.Iq.id ]);
  Alcotest.(check int) "nothing left to retire" 0 (Iq.compact iq)

let test_iq_full () =
  let iq = Iq.create 2 in
  ignore (dispatch_simple iq ~seq:1 ~reusable:false ~ready:true);
  ignore (dispatch_simple iq ~seq:2 ~reusable:false ~ready:true);
  Alcotest.(check bool) "full" true (Iq.is_full iq);
  Alcotest.(check int) "free" 0 (Iq.free iq)

(* ---- Lsq ---- *)

let alloc_mem lsq ~seq ~store =
  let idx = Lsq.alloc lsq in
  let e = Lsq.entry lsq idx in
  e.Lsq.seq <- seq;
  e.Lsq.is_store <- store;
  (idx, e)

(* [check_load]'s forwarding source as the forwarded integer data. *)
let forwarded lsq ~idx ~addr ~width =
  let src = Lsq.check_load lsq ~idx ~addr ~width in
  if src >= 0 then (Lsq.entry lsq src).Lsq.data_i else Alcotest.fail "expected forward"

(* What one broadcast captured, as (rob_idx, seq) pairs. *)
let capture lsq ~tag ~value_i =
  let n = Lsq.capture_data lsq ~tag ~value_i ~value_f:0. in
  List.init n (fun k ->
      let e = Lsq.entry lsq (Lsq.captured lsq k) in
      (e.Lsq.rob_idx, e.Lsq.seq))

let test_lsq_forwarding () =
  let lsq = Lsq.create 8 in
  let _, st = alloc_mem lsq ~seq:1 ~store:true in
  let li, _ = alloc_mem lsq ~seq:2 ~store:false in
  (* store address unknown: load must wait *)
  Alcotest.(check bool) "wait on unknown" true
    (Lsq.check_load lsq ~idx:li ~addr:0x100 ~width:4 = Lsq.load_wait);
  st.Lsq.addr_ready <- true;
  st.Lsq.addr <- 0x200;
  Alcotest.(check bool) "no conflict" true
    (Lsq.check_load lsq ~idx:li ~addr:0x100 ~width:4 = Lsq.load_access);
  st.Lsq.addr <- 0x100;
  Alcotest.(check bool) "match no data" true
    (Lsq.check_load lsq ~idx:li ~addr:0x100 ~width:4 = Lsq.load_wait);
  st.Lsq.data_ready <- true;
  st.Lsq.data_i <- 77;
  Alcotest.(check int) "forwarded value" 77 (forwarded lsq ~idx:li ~addr:0x100 ~width:4)

let test_lsq_youngest_older_store_wins () =
  let lsq = Lsq.create 8 in
  let _, st1 = alloc_mem lsq ~seq:1 ~store:true in
  let _, st2 = alloc_mem lsq ~seq:2 ~store:true in
  let li, _ = alloc_mem lsq ~seq:3 ~store:false in
  st1.Lsq.addr_ready <- true;
  st1.Lsq.addr <- 0x40;
  st1.Lsq.data_ready <- true;
  st1.Lsq.data_i <- 1;
  st2.Lsq.addr_ready <- true;
  st2.Lsq.addr <- 0x40;
  st2.Lsq.data_ready <- true;
  st2.Lsq.data_i <- 2;
  Alcotest.(check int) "youngest older" 2 (forwarded lsq ~idx:li ~addr:0x40 ~width:4)

let test_lsq_squash_and_pop () =
  let lsq = Lsq.create 4 in
  let i1, _ = alloc_mem lsq ~seq:1 ~store:true in
  let _ = alloc_mem lsq ~seq:2 ~store:false in
  Lsq.squash_after lsq ~seq:1;
  Alcotest.(check int) "count" 1 (Lsq.count lsq);
  Alcotest.(check bool) "head is store" true (Lsq.head_is lsq i1);
  Lsq.pop_head lsq;
  Alcotest.(check int) "empty" 0 (Lsq.count lsq)

let test_lsq_capture_data () =
  let lsq = Lsq.create 4 in
  let _, st = alloc_mem lsq ~seq:1 ~store:true in
  st.Lsq.rob_idx <- 9;
  Lsq.wait_data lsq st ~tag:5;
  let captured = capture lsq ~tag:5 ~value_i:33 in
  Alcotest.(check (list (pair int int))) "captured" [ (9, 1) ] captured;
  Alcotest.(check bool) "ready" true st.Lsq.data_ready;
  Alcotest.(check int) "value" 33 st.Lsq.data_i;
  Alcotest.(check (list (pair int int))) "no double capture" []
    (capture lsq ~tag:5 ~value_i:0)

let test_lsq_partial_overlap () =
  let lsq = Lsq.create 8 in
  let _, st = alloc_mem lsq ~seq:1 ~store:true in
  let li, _ = alloc_mem lsq ~seq:2 ~store:false in
  st.Lsq.addr_ready <- true;
  st.Lsq.addr <- 0x100;
  st.Lsq.width <- 1;
  st.Lsq.data_ready <- true;
  st.Lsq.data_i <- 0xAB;
  (* word load overlapping a byte store: no forwarding, must wait *)
  Alcotest.(check bool) "overlap waits" true
    (Lsq.check_load lsq ~idx:li ~addr:0x100 ~width:4 = Lsq.load_wait);
  (* byte load of the exact byte: forwards *)
  Alcotest.(check int) "byte forward" 0xAB (forwarded lsq ~idx:li ~addr:0x100 ~width:1);
  (* disjoint byte: clear *)
  Alcotest.(check bool) "disjoint byte" true
    (Lsq.check_load lsq ~idx:li ~addr:0x104 ~width:1 = Lsq.load_access)

let test_lsq_load_at_head () =
  let lsq = Lsq.create 4 in
  let li, _ = alloc_mem lsq ~seq:1 ~store:false in
  Alcotest.(check bool) "no older stores" true
    (Lsq.check_load lsq ~idx:li ~addr:0 ~width:4 = Lsq.load_access)

(* ---- Fu ---- *)

let test_fu_pool () =
  let fu = Fu.create ~n_ialu:2 ~n_imult:1 ~n_fpalu:1 ~n_fpmult:1 ~n_memport:1 in
  Alcotest.(check bool) "first" true (Fu.acquire fu Insn.FU_ialu ~now:0 ~latency:1 ~pipelined:true);
  Alcotest.(check bool) "second" true (Fu.acquire fu Insn.FU_ialu ~now:0 ~latency:1 ~pipelined:true);
  Alcotest.(check bool) "third denied" false
    (Fu.acquire fu Insn.FU_ialu ~now:0 ~latency:1 ~pipelined:true);
  Alcotest.(check bool) "next cycle ok" true
    (Fu.acquire fu Insn.FU_ialu ~now:1 ~latency:1 ~pipelined:true);
  Alcotest.(check int) "issued count" 3 (Fu.issued_of fu Insn.FU_ialu)

let test_fu_unpipelined () =
  let fu = Fu.create ~n_ialu:1 ~n_imult:1 ~n_fpalu:1 ~n_fpmult:1 ~n_memport:1 in
  Alcotest.(check bool) "div starts" true
    (Fu.acquire fu Insn.FU_imult ~now:0 ~latency:20 ~pipelined:false);
  Alcotest.(check bool) "busy at 10" false
    (Fu.acquire fu Insn.FU_imult ~now:10 ~latency:20 ~pipelined:false);
  Alcotest.(check bool) "free at 20" true
    (Fu.acquire fu Insn.FU_imult ~now:20 ~latency:20 ~pipelined:false)

let test_fu_none_always () =
  let fu = Fu.create ~n_ialu:1 ~n_imult:1 ~n_fpalu:1 ~n_fpmult:1 ~n_memport:1 in
  for _ = 1 to 10 do
    Alcotest.(check bool) "nop free" true
      (Fu.acquire fu Insn.FU_none ~now:0 ~latency:1 ~pipelined:true)
  done

(* qcheck: compact preserves relative order of survivors *)
let prop_iq_compact_order =
  QCheck.Test.make ~name:"compact preserves survivor order" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 16) bool)
    (fun kills ->
      let iq = Iq.create 16 in
      List.iteri
        (fun i kill ->
          let s = dispatch_simple iq ~seq:(i + 1) ~reusable:false ~ready:true in
          if kill then Iq.kill iq s)
        kills;
      ignore (Iq.compact iq);
      let seqs = List.init (Iq.count iq) (fun i -> (Iq.at iq i).Iq.seq) in
      List.sort compare seqs = seqs
      && List.length seqs = List.length (List.filter not kills))

(* qcheck: the queue against a naive list model. Random operation
   sequences drive both, with the eager end-of-cycle step ([compact])
   interleaved with the lazy one ([end_cycle ~positions:false]); the
   model's list is the eager age order either way. After every step the
   occupancy ([count], [free], [is_full]), the per-tag waiter sets, the
   ready set and the captured operands must agree, and so must each
   step's retired count. While positions are exact — after an eager
   step, until a lazy one retires kills — the age order, the reuse
   pointer and [first_reusable] must agree too, and the reuse pointer is
   set only then, as the core does. Operations name their target by an
   index into the slots it is legal for, resolved when it runs, so every
   sequence respects the queue's preconditions (enqueue once per
   dispatch, rename only issued buffered slots). *)

type mslot = {
  real : Iq.slot;
  mutable m_seq : int;
  mutable tag1 : int;
  mutable tag2 : int;
  mutable val1 : int;
  mutable val2 : int;
  mutable fval1 : float;
  mutable fval2 : float;
  m_store : bool;
  mutable m_issued : bool;
  mutable m_reusable : bool;
  mutable m_dead : bool;
  mutable on1 : bool; (* first operand on its tag's waiter list *)
  mutable on2 : bool;
  mutable rdy : bool; (* on the ready list *)
}

type model = {
  mutable q : mslot list; (* age order *)
  mutable pending : mslot list; (* dispatched, not yet enqueued *)
  mutable rptr : int;
  mutable next_seq : int;
  mutable exact : bool; (* the queue's positions are the model's order *)
}

type iq_op =
  | Dispatch of int * int * bool * bool (* tag1, tag2 (-1 = ready), store, reusable *)
  | Enqueue of int
  | Wakeup of int
  | Mark_issued of int
  | Mark_renamed of int * int * int
  | Kill of int
  | Squash_after of int
  | Clear_classification
  | Compact
  | Settle (* the lazy end-of-cycle step *)
  | Set_reuse_ptr of int

let iq_op_to_string = function
  | Dispatch (a, b, st, r) -> Printf.sprintf "dispatch(%d,%d,%b,%b)" a b st r
  | Enqueue k -> Printf.sprintf "enqueue %d" k
  | Wakeup tag -> Printf.sprintf "wakeup %d" tag
  | Mark_issued k -> Printf.sprintf "mark_issued %d" k
  | Mark_renamed (k, a, b) -> Printf.sprintf "mark_renamed(%d,%d,%d)" k a b
  | Kill k -> Printf.sprintf "kill %d" k
  | Squash_after k -> Printf.sprintf "squash_after %d" k
  | Clear_classification -> "clear_classification"
  | Compact -> "compact"
  | Settle -> "settle"
  | Set_reuse_ptr k -> Printf.sprintf "set_reuse_ptr %d" k

let model_tags = 6
let model_size = 8

let gen_iq_op =
  let open QCheck.Gen in
  let tag = int_range (-1) (model_tags - 1) in
  let k = int_bound 15 in
  frequency
    [
      (5, map (fun (a, b, st, r) -> Dispatch (a, b, st, r)) (quad tag tag bool bool));
      (* A store whose address is ready and whose data is not. *)
      (2, map (fun (b, r) -> Dispatch (-1, b, true, r)) (pair (int_range 0 (model_tags - 1)) bool));
      (5, map (fun k -> Enqueue k) k);
      (4, map (fun t -> Wakeup t) (int_bound (model_tags - 1)));
      (3, map (fun k -> Mark_issued k) k);
      (2, map (fun (k, a, b) -> Mark_renamed (k, a, b)) (triple k tag tag));
      (2, map (fun k -> Kill k) k);
      (1, map (fun k -> Squash_after k) (int_bound 40));
      (1, return Clear_classification);
      (2, return Compact);
      (2, return Settle);
      (1, map (fun k -> Set_reuse_ptr k) (int_bound model_size));
    ]

let pick l k = match l with [] -> None | _ -> Some (List.nth l (k mod List.length l))

let m_enqueue m =
  m.on1 <- m.tag1 >= 0;
  m.on2 <- m.tag2 >= 0;
  m.rdy <- m.tag1 < 0 && (m.tag2 < 0 || m.m_store)

let m_unlink m =
  m.on1 <- false;
  m.on2 <- false;
  m.rdy <- false

let m_kill m =
  m.m_dead <- true;
  m_unlink m

let m_issue m =
  m.m_issued <- true;
  m_unlink m

(* Apply one operation to the queue and to the model. [Error] reports an
   end-of-cycle step whose retired count differs from the model's. *)
let step_iq iq md op =
  let fresh_seq () =
    md.next_seq <- md.next_seq + 1;
    md.next_seq
  in
  let is_pending m = List.memq m md.pending in
  let live = List.filter (fun m -> not m.m_dead) md.q in
  match op with
  | Dispatch (a, b, st, r) ->
      if not (Iq.is_full iq) then begin
        let s = Iq.dispatch iq in
        let seq = fresh_seq () in
        s.Iq.seq <- seq;
        s.Iq.is_store <- st;
        s.Iq.reusable <- r;
        Iq.set_src iq s ~port:0 ~tag:a ~value_i:(if a < 0 then seq else 0) ~value_f:0.;
        Iq.set_src iq s ~port:1 ~tag:b ~value_i:0 ~value_f:(if b < 0 then 0.5 else 0.);
        let m =
          {
            real = s;
            m_seq = seq;
            tag1 = a;
            tag2 = b;
            val1 = (if a < 0 then seq else 0);
            val2 = 0;
            fval1 = 0.;
            fval2 = (if b < 0 then 0.5 else 0.);
            m_store = st;
            m_issued = false;
            m_reusable = r;
            m_dead = false;
            on1 = false;
            on2 = false;
            rdy = false;
          }
        in
        md.q <- md.q @ [ m ];
        md.pending <- md.pending @ [ m ]
      end;
      Ok ()
  | Enqueue k ->
      (match pick md.pending k with
      | Some m ->
          Iq.enqueue iq m.real;
          m_enqueue m;
          md.pending <- List.filter (fun x -> x != m) md.pending
      | None -> ());
      Ok ()
  | Wakeup tag ->
      let v = 1000 + tag and vf = float_of_int tag +. 0.25 in
      Iq.wakeup iq ~tag ~value_i:v ~value_f:vf;
      List.iter
        (fun m ->
          let woke1 = m.on1 && m.tag1 = tag and woke2 = m.on2 && m.tag2 = tag in
          if woke1 then begin
            m.on1 <- false;
            m.tag1 <- -1;
            m.val1 <- v;
            m.fval1 <- vf
          end;
          if woke2 then begin
            m.on2 <- false;
            m.tag2 <- -1;
            m.val2 <- v;
            m.fval2 <- vf
          end;
          if (woke1 || woke2) && m.tag1 < 0 && (m.tag2 < 0 || m.m_store) then m.rdy <- true)
        md.q;
      Ok ()
  | Mark_issued k ->
      (match
         pick (List.filter (fun m -> (not m.m_issued) && not (is_pending m)) live) k
       with
      | Some m ->
          Iq.mark_issued iq m.real;
          m_issue m
      | None -> ());
      Ok ()
  | Mark_renamed (k, a, b) ->
      (match pick (List.filter (fun m -> m.m_issued && m.m_reusable) live) k with
      | Some m ->
          let seq = fresh_seq () in
          m.real.Iq.seq <- seq;
          Iq.set_src iq m.real ~port:0 ~tag:a ~value_i:0 ~value_f:0.;
          Iq.set_src iq m.real ~port:1 ~tag:b ~value_i:0 ~value_f:0.;
          Iq.mark_renamed iq m.real;
          m.m_seq <- seq;
          m.tag1 <- a;
          m.tag2 <- b;
          m.val1 <- 0;
          m.val2 <- 0;
          m.fval1 <- 0.;
          m.fval2 <- 0.;
          m.m_issued <- false;
          m_enqueue m
      | None -> ());
      Ok ()
  | Kill k ->
      (match pick (List.filter (fun m -> not (is_pending m)) live) k with
      | Some m ->
          Iq.kill iq m.real;
          m_kill m
      | None -> ());
      Ok ()
  | Squash_after seq ->
      Iq.squash_after iq ~seq;
      List.iter
        (fun m ->
          if (not m.m_dead) && m.m_seq > seq then
            if m.m_reusable then (if not m.m_issued then m_issue m) else m_kill m)
        md.q;
      md.pending <- List.filter (fun m -> not (m.m_dead || m.m_issued)) md.pending;
      Ok ()
  | Clear_classification ->
      Iq.clear_classification iq;
      List.iter
        (fun m ->
          if m.m_reusable then begin
            m.m_reusable <- false;
            if m.m_issued then m_kill m
          end)
        md.q;
      md.pending <- List.filter (fun m -> not m.m_dead) md.pending;
      Ok ()
  | Compact | Settle ->
      let removed = Iq.end_cycle iq ~positions:(op = Compact) in
      let rec dead_before i = function
        | [] -> 0
        | m :: rest -> if i >= md.rptr then 0 else Bool.to_int m.m_dead + dead_before (i + 1) rest
      in
      let expected = List.length md.q - List.length live in
      if expected > 0 then begin
        md.rptr <- md.rptr - dead_before 0 md.q;
        md.q <- live;
        if md.rptr > List.length md.q || md.rptr < 0 then md.rptr <- 0
      end;
      if op = Compact then md.exact <- true else if expected > 0 then md.exact <- false;
      if removed = expected then Ok ()
      else Error (Printf.sprintf "end of cycle retired %d, model %d" removed expected)
  | Set_reuse_ptr k ->
      if md.exact then begin
        let p = k mod (Iq.count iq + 1) in
        Iq.set_reuse_ptr iq p;
        md.rptr <- p
      end;
      Ok ()

let sorted l = List.sort compare l

(* Everything observable through the interface, the queue's side and the
   model's side, as comparable values: the occupancy; the ready set, the
   waiter sets and the operands of the slots in age order; and what reads
   positions. *)
let occupancy_iq iq = (Iq.count iq, Iq.free iq, Iq.is_full iq)

let occupancy_model md =
  let n = List.length md.q in
  (n, model_size - n, n = model_size)

let observe_iq iq slots =
  let ready =
    let rec walk id acc =
      if id < 0 then acc else walk (Iq.ready_next iq id) ((Iq.slots iq).(id).Iq.seq :: acc)
    in
    sorted (walk (Iq.ready_first iq) [])
  in
  let waiters =
    List.init model_tags (fun tag ->
        sorted (List.map (fun (s, port) -> (s.Iq.seq, port)) (Iq.waiters iq ~tag)))
  in
  let operands =
    List.map
      (fun s ->
        ( (s.Iq.seq, s.Iq.src1_tag, s.Iq.src2_tag, s.Iq.src1_i, s.Iq.src2_i),
          (Iq.src1_f iq s, Iq.src2_f iq s, s.Iq.issued, s.Iq.reusable, s.Iq.dead) ))
      slots
  in
  (List.map (fun s -> s.Iq.id) slots, ready, waiters, operands)

let observe_model md ms =
  let ready = sorted (List.filter_map (fun m -> if m.rdy then Some m.m_seq else None) md.q) in
  let waiters =
    List.init model_tags (fun tag ->
        sorted
          (List.concat_map
             (fun m ->
               (if m.on1 && m.tag1 = tag then [ (m.m_seq, 0) ] else [])
               @ if m.on2 && m.tag2 = tag then [ (m.m_seq, 1) ] else [])
             md.q))
  in
  let operands =
    List.map
      (fun m ->
        ( (m.m_seq, m.tag1, m.tag2, m.val1, m.val2),
          (m.fval1, m.fval2, m.m_issued, m.m_reusable, m.m_dead) ))
      ms
  in
  (List.map (fun m -> m.real.Iq.id) ms, ready, waiters, operands)

let positions_iq iq = (Iq.reuse_ptr iq, Iq.first_reusable iq)

let positions_model md =
  let rec find i = function
    | [] -> -1
    | m :: rest -> if m.m_reusable then i else find (i + 1) rest
  in
  (md.rptr, find 0 md.q)

(* While positions are exact, the queue's slots in its age order against
   the whole model. Otherwise the positions still hold earlier cycles'
   dead, and a [dispatch] that collapsed them may have claimed a slot
   killed this cycle, so the model's live slots are compared, through
   their own records. *)
let agrees iq md =
  let ms, slots =
    if md.exact then (md.q, List.init (Iq.count iq) (fun i -> Iq.at iq i))
    else
      let live = List.filter (fun m -> not m.m_dead) md.q in
      (live, List.map (fun m -> m.real) live)
  in
  occupancy_iq iq = occupancy_model md
  && observe_iq iq slots = observe_model md ms
  && ((not md.exact) || positions_iq iq = positions_model md)

let prop_iq_model =
  QCheck.Test.make ~name:"iq agrees with a list model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map iq_op_to_string ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 80) gen_iq_op))
    (fun ops ->
      let iq = Iq.create model_size in
      let md = { q = []; pending = []; rptr = 0; next_seq = 0; exact = true } in
      List.for_all
        (fun op ->
          match step_iq iq md op with
          | Error msg -> QCheck.Test.fail_reportf "after %s: %s" (iq_op_to_string op) msg
          | Ok () ->
              agrees iq md
              || QCheck.Test.fail_reportf "state differs after %s" (iq_op_to_string op))
        ops)

(* qcheck: the load/store queue against a list model. Random operation
   sequences allocate loads and stores, resolve addresses, tag stores'
   data on tags 0-7, broadcast, check loads, commit and squash. A
   broadcast must capture exactly the live stores waiting on its tag, in
   queue order; a load check must return what a walk over the model
   returns; and after every step each slot's data state must match and
   [Lsq.invariant] (each tag's waiter count against the waiting stores)
   must hold. Operations pick their target among the slots legal for
   them, so every sequence respects the queue's preconditions. *)

type lslot = {
  l_idx : int;
  l_seq : int;
  l_store : bool;
  l_width : int;
  mutable l_addr : int option; (* resolved address *)
  mutable l_tag : int; (* data tag, -1 = none *)
  mutable l_data : int option; (* captured store data *)
}

type lsq_op =
  | L_alloc of bool * int (* store, width choice *)
  | L_resolve of int * int (* slot, address choice *)
  | L_wait of int * int (* store, tag *)
  | L_capture of int
  | L_check of int
  | L_pop
  | L_squash of int

let lsq_op_to_string = function
  | L_alloc (st, w) -> Printf.sprintf "alloc(%b,%d)" st w
  | L_resolve (k, a) -> Printf.sprintf "resolve(%d,%d)" k a
  | L_wait (k, tag) -> Printf.sprintf "wait(%d,%d)" k tag
  | L_capture tag -> Printf.sprintf "capture %d" tag
  | L_check k -> Printf.sprintf "check %d" k
  | L_pop -> "pop"
  | L_squash k -> Printf.sprintf "squash_after %d" k

let lsq_tags = 8

let gen_lsq_op =
  let open QCheck.Gen in
  let k = int_bound 15 in
  frequency
    [
      (6, map2 (fun st w -> L_alloc (st, w)) bool (int_bound 2));
      (4, map2 (fun k a -> L_resolve (k, a)) k (int_bound 5));
      (4, map2 (fun k tag -> L_wait (k, tag)) k (int_bound (lsq_tags - 1)));
      (4, map (fun tag -> L_capture tag) (int_bound (lsq_tags - 1)));
      (3, map (fun k -> L_check k) k);
      (2, return L_pop);
      (1, map (fun k -> L_squash k) (int_bound 40));
    ]

(* Six word addresses, two of them sharing a word at different widths. *)
let lsq_addr = [| 0x100; 0x104; 0x108; 0x100; 0x102; 0x200 |]
let lsq_width = [| 4; 2; 1 |]

let m_overlaps a aw b bw = a < b + bw && b < a + aw

(* What [check_load] should return for the load [ld]: walk the older
   slots youngest first. *)
let m_check_load q ld addr width =
  let rec older = function
    | [] -> []
    | m :: rest -> if m == ld then [] else m :: older rest
  in
  let rec walk = function
    | [] -> Lsq.load_access
    | m :: rest when not m.l_store -> walk rest
    | m :: rest -> (
        match m.l_addr with
        | None -> Lsq.load_wait
        | Some a when a = addr && m.l_width = width ->
            if m.l_data <> None then m.l_idx else Lsq.load_wait
        | Some a when m_overlaps a m.l_width addr width -> Lsq.load_wait
        | Some _ -> walk rest)
  in
  walk (List.rev (older q))

let step_lsq lsq q next_seq op =
  let pick_from l k = match l with [] -> None | _ -> Some (List.nth l (k mod List.length l)) in
  match op with
  | L_alloc (st, w) ->
      if Lsq.is_full lsq then Ok q
      else begin
        incr next_seq;
        let idx = Lsq.alloc lsq in
        let e = Lsq.entry lsq idx in
        e.Lsq.seq <- !next_seq;
        e.Lsq.rob_idx <- 100 + !next_seq;
        e.Lsq.is_store <- st;
        e.Lsq.width <- lsq_width.(w);
        Ok
          (q
          @ [
              {
                l_idx = idx;
                l_seq = !next_seq;
                l_store = st;
                l_width = lsq_width.(w);
                l_addr = None;
                l_tag = -1;
                l_data = None;
              };
            ])
      end
  | L_resolve (k, a) ->
      (match pick_from (List.filter (fun m -> m.l_addr = None) q) k with
      | Some m ->
          (* Aligned to the slot's width, as address generation leaves it. *)
          let addr = lsq_addr.(a) land lnot (m.l_width - 1) in
          let e = Lsq.entry lsq m.l_idx in
          e.Lsq.addr <- addr;
          e.Lsq.addr_ready <- true;
          m.l_addr <- Some addr
      | None -> ());
      Ok q
  | L_wait (k, tag) ->
      (match pick_from (List.filter (fun m -> m.l_store && m.l_tag < 0 && m.l_data = None) q) k with
      | Some m ->
          Lsq.wait_data lsq (Lsq.entry lsq m.l_idx) ~tag;
          m.l_tag <- tag
      | None -> ());
      Ok q
  | L_capture tag ->
      let v = 1000 + tag in
      let n = Lsq.capture_data lsq ~tag ~value_i:v ~value_f:0. in
      let got = List.init n (Lsq.captured lsq) in
      let expected = List.filter (fun m -> m.l_tag = tag) q in
      List.iter
        (fun m ->
          m.l_tag <- -1;
          m.l_data <- Some v)
        expected;
      let expected = List.map (fun m -> m.l_idx) expected in
      if got = expected then Ok q
      else
        Error
          (Printf.sprintf "capture %d took [%s], waiting stores [%s]" tag
             (String.concat ";" (List.map string_of_int got))
             (String.concat ";" (List.map string_of_int expected)))
  | L_check k -> (
      match pick_from (List.filter (fun m -> (not m.l_store) && m.l_addr <> None) q) k with
      | Some ({ l_addr = Some addr; _ } as m) ->
          let got = Lsq.check_load lsq ~idx:m.l_idx ~addr ~width:m.l_width in
          let expected = m_check_load q m addr m.l_width in
          if got = expected then Ok q
          else Error (Printf.sprintf "check_load slot %d: %d, model %d" m.l_idx got expected)
      | Some _ | None -> Ok q)
  | L_pop -> (
      match q with
      | [] -> Ok q
      | m :: rest ->
          if Lsq.head_is lsq m.l_idx then begin
            Lsq.pop_head lsq;
            Ok rest
          end
          else Error (Printf.sprintf "head is not slot %d" m.l_idx))
  | L_squash seq ->
      Lsq.squash_after lsq ~seq;
      Ok (List.filter (fun m -> m.l_seq <= seq) q)

(* Each modelled slot's data state on the queue's side and the model's. *)
let observe_lsq lsq q =
  ( Lsq.count lsq,
    List.map
      (fun m ->
        let e = Lsq.entry lsq m.l_idx in
        let data = if e.Lsq.data_ready then e.Lsq.data_i else 0 in
        (e.Lsq.live, e.Lsq.seq, e.Lsq.data_tag, e.Lsq.data_ready, data))
      q )

let observe_lsq_model q =
  ( List.length q,
    List.map
      (fun m ->
        let data = Option.value m.l_data ~default:0 in
        (true, m.l_seq, m.l_tag, m.l_data <> None, data))
      q )

let prop_lsq_model =
  QCheck.Test.make ~name:"lsq agrees with a list model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map lsq_op_to_string ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 80) gen_lsq_op))
    (fun ops ->
      let lsq = Lsq.create 6 in
      let next_seq = ref 0 in
      let rec run q = function
        | [] -> true
        | op :: rest -> (
            let fail fmt = QCheck.Test.fail_reportf ("after %s: " ^^ fmt) (lsq_op_to_string op) in
            match step_lsq lsq q next_seq op with
            | Error msg -> fail "%s" msg
            | Ok q -> (
                match Lsq.invariant lsq with
                | Error msg -> fail "invariant: %s" msg
                | Ok () ->
                    if observe_lsq lsq q <> observe_lsq_model q then fail "state differs"
                    else run q rest))
      in
      run [] ops)

let suites =
  [
    ( "ooo",
      [
        Alcotest.test_case "config scaling" `Quick test_config_scaling;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "rob fifo" `Quick test_rob_fifo;
        Alcotest.test_case "rob full" `Quick test_rob_full;
        Alcotest.test_case "rob wraparound" `Quick test_rob_wraparound;
        Alcotest.test_case "rob squash" `Quick test_rob_squash;
        Alcotest.test_case "rob iteration" `Quick test_rob_iteration;
        Alcotest.test_case "iq dispatch/compact" `Quick test_iq_dispatch_compact;
        Alcotest.test_case "iq wakeup" `Quick test_iq_wakeup;
        Alcotest.test_case "iq classification" `Quick test_iq_classification;
        Alcotest.test_case "iq squash semantics" `Quick test_iq_squash;
        Alcotest.test_case "iq reuse pointer under compact" `Quick test_iq_reuse_ptr_compact;
        Alcotest.test_case "iq first reusable" `Quick test_iq_first_reusable;
        Alcotest.test_case "iq full" `Quick test_iq_full;
        Alcotest.test_case "iq dispatch collapses a full order" `Quick test_iq_dispatch_walks;
        Alcotest.test_case "lsq forwarding" `Quick test_lsq_forwarding;
        Alcotest.test_case "lsq youngest older store" `Quick test_lsq_youngest_older_store_wins;
        Alcotest.test_case "lsq squash/pop" `Quick test_lsq_squash_and_pop;
        Alcotest.test_case "lsq capture data" `Quick test_lsq_capture_data;
        Alcotest.test_case "lsq partial overlap" `Quick test_lsq_partial_overlap;
        Alcotest.test_case "lsq load at head" `Quick test_lsq_load_at_head;
        Alcotest.test_case "fu pool" `Quick test_fu_pool;
        Alcotest.test_case "fu unpipelined" `Quick test_fu_unpipelined;
        Alcotest.test_case "fu none" `Quick test_fu_none_always;
        QCheck_alcotest.to_alcotest prop_iq_compact_order;
        QCheck_alcotest.to_alcotest prop_iq_model;
        QCheck_alcotest.to_alcotest prop_lsq_model;
      ] );
  ]

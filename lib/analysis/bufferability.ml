open Riq_isa
open Riq_asm
open Riq_core

type reason =
  | Too_large of int
  | Inner_transfer of int
  | Call_overflow of int
  | Callee_loops of int
  | Indirect of int
  | Contains_halt of int
  | Side_entry
  | Irreducible

type prediction = Promotes | Never_promotes | Marginal

type risk = Data_dependent_trip

type loop_report = {
  head : int;
  tail : int;
  span : int;
  depth : int;
  innermost : bool;
  verdict : (unit, reason) result;
  trip : int option;
  entries : float option;
  unroll : int;
  prediction : prediction;
  nblt_risk : bool;
  reused_insns : float option;
  risks : risk list;
  predicted_cause : Reuse_state.revoke_cause option;
}

type report = {
  iq_size : int;
  loops : loop_report list;
  total_insns : float;
  coverage : float option;
  exact_trips : bool;
  irreducible_edges : (int * int) list;
  unreachable : (int * int) list;
}

let reason_to_string = function
  | Too_large span -> Printf.sprintf "too-large (span %d)" span
  | Inner_transfer pc -> Printf.sprintf "inner-loop (backward transfer at %08x)" pc
  | Call_overflow fp -> Printf.sprintf "call-overflow (iteration footprint %d)" fp
  | Callee_loops pc -> Printf.sprintf "callee-loops (callee at %08x)" pc
  | Indirect pc -> Printf.sprintf "indirect (at %08x)" pc
  | Contains_halt pc -> Printf.sprintf "contains-halt (at %08x)" pc
  | Side_entry -> "side-entry"
  | Irreducible -> "irreducible"

(* Default amplification for loops whose trip count resists static
   derivation; flow estimates using it are flagged inexact. *)
let default_trip = 10.

(* ------------------------------------------------------------------ *)
(* Constant resolution and trip counts.                                 *)
(* ------------------------------------------------------------------ *)

(* Loop-entry constant of a register: the value-range join over the edges
   into the loop head from its predecessors outside the address window
   (the preheader paths). Sound across calls, which Valrange havocs. *)
let entry_const cfg values ~head ~tail reg =
  match Cfg.block_at cfg head with
  | None -> None
  | Some hb ->
      let outside p =
        let pb = Cfg.block cfg p in
        pb.Cfg.b_last < head || pb.Cfg.b_first > tail
      in
      Valrange.const
        (Valrange.value_into values ~block:hb.Cfg.b_id
           ~from:(List.filter outside hb.Cfg.b_preds)
           reg)

(* The instructions of the address window [head..tail], the quantity the
   dynamic detector and buffering state machine reason about. *)
let window_insns program ~head ~tail =
  let rec go pc acc =
    if pc > tail then List.rev acc
    else
      match Program.insn_at program pc with
      | Some i -> go (pc + 4) ((pc, i) :: acc)
      | None -> List.rev acc
  in
  go head []

(* Statically derive the per-entry iteration count of the loop closed by
   the backward branch at [tail]. Recognises the two bottom-test idioms:
     slt/slti rc, ri, bound ; bne rc, r0, head     (count up to a bound)
     addi ri, ri, -s ; bgtz/bne ri(, r0), head     (count down to zero)
   with the induction step the unique in-window update of [ri] and the
   loop-entry values taken from the value-range analysis. Every count
   returned is exact (the tail test fires after exactly that many
   induction updates): a [bne]-to-zero countdown whose initial value is
   not divisible by the step never hits zero, so it yields [None] rather
   than a bogus ceiling. *)
let trip_count cfg values ~head ~tail =
  let program = cfg.Cfg.program in
  let win = window_insns program ~head ~tail in
  let defs_of r =
    List.filter (fun (pc, i) -> pc <> tail && Insn.dest i = Some r) win
  in
  let induction ri =
    match defs_of ri with
    | [ (_, Insn.Alui (Insn.Add, _, rs, step)) ] when rs = ri && step <> 0 -> Some step
    | _ -> None
  in
  let entry_const reg = entry_const cfg values ~head ~tail reg in
  let last_def_before_tail r =
    let rec go best = function
      | [] -> best
      | (pc, i) :: rest ->
          if pc < tail && Insn.dest i = Some r then go (Some (pc, i)) rest
          else go best rest
    in
    go None win
  in
  let up ~init ~bound ~step =
    if step <= 0 then None
    else if init >= bound then Some 1 (* entered at all means one pass *)
    else Some ((bound - init + step - 1) / step)
  in
  match Program.insn_at program tail with
  | Some (Insn.Br (Insn.Bne, rc, rt, _)) when rt = Reg.zero -> (
      match last_def_before_tail rc with
      | Some (_, Insn.Alui (Insn.Slt, _, ri, bound)) -> (
          match (induction ri, entry_const ri) with
          | Some step, Some init -> up ~init ~bound ~step
          | _ -> None)
      | Some (slt_pc, Insn.Alu (Insn.Slt, _, ri, rb)) -> (
          (* The bound register's value just before the compare. *)
          match
            ( induction ri,
              entry_const ri,
              Valrange.const (Valrange.value_at values ~pc:slt_pc rb) )
          with
          | Some step, Some init, Some bound when defs_of rb = [] ->
              up ~init ~bound ~step
          | _ -> None)
      | _ -> (
          (* bne ri, r0: count down to zero. *)
          match (induction rc, entry_const rc) with
          | Some step, Some init
            when step < 0 && init > 0 && init mod -step = 0 ->
              Some (init / -step)
          | _ -> None))
  | Some (Insn.Br (Insn.Bgtz, ri, _, _)) -> (
      match (induction ri, entry_const ri) with
      | Some step, Some init when step < 0 && init > 0 -> Some ((init + -step - 1) / -step)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Block execution-frequency estimation.                               *)
(* ------------------------------------------------------------------ *)

type flow = {
  counts : float array; (* expected executions per block *)
  header_entries : float array; (* flow into a loop header from outside *)
  exact : bool; (* no unknown trip count was involved *)
}

let estimate_flow cfg (ls : Loops.t) (trips : int option array) =
  let n = Cfg.n_blocks cfg in
  let rpo = Cfg.reverse_postorder cfg in
  let reach = Cfg.reachable cfg in
  let pos = Array.make n max_int in
  Array.iteri (fun i b -> pos.(b) <- i) rpo;
  let retreating src dst = pos.(dst) <= pos.(src) in
  let loop_idx_of_header = Hashtbl.create 8 in
  Array.iteri (fun i l -> Hashtbl.replace loop_idx_of_header l.Loops.l_header i) ls.Loops.loops;
  let exact = ref true in
  let trip_float i =
    match trips.(i) with
    | Some t -> float_of_int (max 1 t)
    | None ->
        exact := false;
        default_trip
  in
  let inflow = Array.make n 0. in
  let counts = Array.make n 0. in
  let header_entries = Array.make n 0. in
  inflow.(cfg.Cfg.entry) <- 1.;
  (* The source block of a back edge of loop [i], used to scale its exit
     edges down by the trip count. *)
  let back_loop_of b =
    let best = ref None in
    Array.iteri
      (fun i l ->
        if List.mem b l.Loops.l_back_edges && List.exists (retreating b) [ l.Loops.l_header ]
        then best := Some i)
      ls.Loops.loops;
    !best
  in
  Array.iter
    (fun b ->
      if reach.(b) then begin
        let c =
          match Hashtbl.find_opt loop_idx_of_header b with
          | Some i ->
              header_entries.(b) <- inflow.(b);
              inflow.(b) *. trip_float i
          | None -> inflow.(b)
        in
        counts.(b) <- c;
        let bl = Cfg.block cfg b in
        let add s w = inflow.(s) <- inflow.(s) +. w in
        match back_loop_of b with
        | Some i ->
            (* Loop-closing block: the back edge is consumed by the header
               amplification; exit edges fire once per loop entry. *)
            let t = trip_float i in
            List.iter (fun s -> if not (retreating b s) then add s (c /. t)) bl.Cfg.b_succs
        | None -> (
            if bl.Cfg.b_call then List.iter (fun s -> add s c) bl.Cfg.b_succs
            else
              match List.filter (fun s -> not (retreating b s)) bl.Cfg.b_succs with
              | [] -> ()
              | [ s ] -> add s c
              | [ s1; s2 ] -> (
                  (* Loop-guard idiom: a branch that either enters an
                     upcoming loop or skips it takes the entering side
                     whenever the loop statically iterates. *)
                  let guard s =
                    match Hashtbl.find_opt loop_idx_of_header s with
                    | Some i when not (List.mem b ls.Loops.loops.(i).Loops.l_blocks) ->
                        trips.(i)
                    | _ -> None
                  in
                  match (guard s1, guard s2) with
                  | Some t, _ ->
                      if t >= 1 then add s1 c else add s2 c
                  | _, Some t ->
                      if t >= 1 then add s2 c else add s1 c
                  | None, None ->
                      add s1 (c *. 0.5);
                      add s2 (c *. 0.5))
              | more ->
                  let w = c /. float_of_int (List.length more) in
                  List.iter (fun s -> add s w) more)
      end)
    rpo;
  { counts; header_entries; exact = !exact }

(* ------------------------------------------------------------------ *)
(* Direct-callee footprint.                                            *)
(* ------------------------------------------------------------------ *)

(* Size in instructions of the procedure entered at [entry] (a block id),
   following direct calls transitively; [Error] when the callee cannot be
   buffered as straight-line code. *)
let callee_size cfg (ls : Loops.t) =
  let memo = Hashtbl.create 8 in
  let rec size ~depth entry =
    if depth > 8 then Error (Callee_loops (Cfg.block cfg entry).Cfg.b_first)
    else
      match Hashtbl.find_opt memo entry with
      | Some r -> r
      | None ->
          let visited = Hashtbl.create 8 in
          let total = ref 0 in
          let err = ref None in
          let rec dfs b =
            if (not (Hashtbl.mem visited b)) && !err = None then begin
              Hashtbl.replace visited b ();
              let bl = Cfg.block cfg b in
              total := !total + Cfg.n_insns bl;
              if Loops.containing ls b <> [] then
                err := Some (Callee_loops (Cfg.block cfg entry).Cfg.b_first)
              else begin
                (match Cfg.last_insn cfg bl with
                | Insn.Jalr _ -> err := Some (Indirect bl.Cfg.b_last)
                | Jr r when r <> Reg.ra -> err := Some (Indirect bl.Cfg.b_last)
                | Halt -> err := Some (Contains_halt bl.Cfg.b_last)
                | Jal t -> (
                    match Cfg.block_at cfg (4 * t) with
                    | Some cb -> (
                        match size ~depth:(depth + 1) cb.Cfg.b_id with
                        | Ok s -> total := !total + s
                        | Error e -> err := Some e)
                    | None -> err := Some (Indirect bl.Cfg.b_last))
                | _ -> ());
                match Cfg.last_insn cfg bl with
                | Insn.Jr _ -> () (* return: end of the callee *)
                | Jal _ ->
                    (* continue at the return point only *)
                    (match bl.Cfg.b_succs with
                    | fall :: _ when (Cfg.block cfg fall).Cfg.b_first = bl.Cfg.b_last + 4 ->
                        dfs fall
                    | _ -> ())
                | _ -> List.iter dfs bl.Cfg.b_succs
              end
            end
          in
          dfs entry;
          let r = match !err with Some e -> Error e | None -> Ok !total in
          Hashtbl.replace memo entry r;
          r
  in
  fun entry -> size ~depth:0 entry

(* ------------------------------------------------------------------ *)
(* The analysis proper.                                                *)
(* ------------------------------------------------------------------ *)

let analyze ?(multi_iter = true) ~iq_size program =
  let cfg = Cfg.build program in
  let ls = Loops.detect cfg in
  let values = Valrange.analyze cfg in
  let n = Cfg.n_blocks cfg in
  let rpo = Cfg.reverse_postorder cfg in
  let reach = Cfg.reachable cfg in
  let pos = Array.make n max_int in
  Array.iteri (fun i b -> pos.(b) <- i) rpo;
  let nloops = Array.length ls.Loops.loops in
  (* Trip counts per natural loop, closed by its last back edge. *)
  let trips = Array.make nloops None in
  Array.iteri
    (fun i l ->
      let tail_block =
        List.fold_left
          (fun acc b -> if (Cfg.block cfg b).Cfg.b_last > (Cfg.block cfg acc).Cfg.b_last then b else acc)
          (List.hd l.Loops.l_back_edges) l.Loops.l_back_edges
      in
      let head = (Cfg.block cfg l.Loops.l_header).Cfg.b_first in
      let tail = (Cfg.block cfg tail_block).Cfg.b_last in
      if tail > head then trips.(i) <- trip_count cfg values ~head ~tail)
    ls.Loops.loops;
  let flow = estimate_flow cfg ls trips in
  let csize = callee_size cfg ls in
  let total_insns =
    Array.fold_left ( +. ) 0.
      (Array.mapi (fun b c -> c *. float_of_int (Cfg.n_insns (Cfg.block cfg b))) flow.counts)
  in
  (* Candidate backward transfers, exactly the dynamic detector's set. *)
  let candidates =
    Array.to_list cfg.Cfg.blocks
    |> List.filter_map (fun bl ->
           if not reach.(bl.Cfg.b_id) then None
           else
             let pc = bl.Cfg.b_last in
             let insn = Cfg.last_insn cfg bl in
             match Insn.kind insn with
             | Insn.K_branch | K_jump -> (
                 match Insn.ctrl_target insn ~pc with
                 | Some target when target <= pc -> Some (bl, target, pc)
                 | _ -> None)
             | _ -> None)
  in
  let classify (bl : Cfg.block) head tail =
    let span = ((tail - head) / 4) + 1 in
    if span > iq_size then (Error (Too_large span), 0)
    else begin
      let win = window_insns program ~head ~tail in
      (* Scan the window the way the buffering state machine watches the
         decode stream. *)
      let rec scan fp = function
        | [] -> (Ok (), fp)
        | (pc, insn) :: rest when pc <> tail -> (
            match Insn.kind insn with
            | Insn.K_branch | K_jump -> (
                match Insn.ctrl_target insn ~pc with
                | Some t when t <= pc -> (Error (Inner_transfer pc), fp)
                | _ -> scan fp rest)
            | K_ijump | K_return -> (Error (Indirect pc), fp)
            | K_halt -> (Error (Contains_halt pc), fp)
            | K_call -> (
                match insn with
                | Insn.Jal t -> (
                    match Cfg.block_at cfg (4 * t) with
                    | None -> (Error (Indirect pc), fp)
                    | Some cb -> (
                        match csize cb.Cfg.b_id with
                        | Ok s -> scan (fp + s) rest
                        | Error e -> (Error e, fp)))
                | _ -> (Error (Indirect pc), fp))
            | K_int | K_fp | K_load | K_store | K_nop -> scan fp rest)
        | _ :: rest -> scan fp rest
      in
      let structural, fp = scan span win in
      match structural with
      | Error e -> (Error e, fp)
      | Ok () -> (
          (* Natural-loop agreement: reject irreducible regions and side
             entries rather than mis-detecting them. *)
          match Cfg.block_at cfg head with
          | None -> (Error Irreducible, fp)
          | Some hb ->
              if hb.Cfg.b_first <> head then (Error Side_entry, fp)
              else if not (Dominators.dominates ls.Loops.dom hb.Cfg.b_id bl.Cfg.b_id) then
                (Error Irreducible, fp)
              else (
                match Loops.loop_of_header ls hb.Cfg.b_id with
                | None -> (Error Irreducible, fp)
                | Some l ->
                    let window_blocks =
                      List.filter_map
                        (fun b ->
                          let blk = Cfg.block cfg b in
                          if blk.Cfg.b_first >= head && blk.Cfg.b_last <= tail then Some b
                          else None)
                        (List.init n Fun.id)
                    in
                    let same =
                      List.sort compare l.Loops.l_blocks = List.sort compare window_blocks
                    in
                    if not same then (Error Side_entry, fp)
                    else if fp > iq_size then (Error (Call_overflow fp), fp)
                    else (Ok (), fp)))
    end
  in
  let mk_report (bl, head, tail) =
    let span = ((tail - head) / 4) + 1 in
    let verdict, footprint = classify bl head tail in
    let footprint = max span footprint in
    let natural =
      match Cfg.block_at cfg head with
      | Some h when h.Cfg.b_first = head -> Loops.loop_of_header ls h.Cfg.b_id
      | _ -> None
    in
    let depth, innermost =
      match natural with
      | Some l -> (l.Loops.l_depth, l.Loops.l_children = [])
      | None -> (0, true)
    in
    let trip =
      match natural with
      | Some l ->
          let i = ref None in
          Array.iteri (fun k lk -> if lk == l then i := Some k) ls.Loops.loops;
          Option.bind !i (fun k -> trips.(k))
      | None -> None
    in
    let entries =
      match natural with
      | Some l ->
          let e = flow.header_entries.(l.Loops.l_header) in
          if e > 0. then Some e else None
      | None -> None
    in
    let win = window_insns program ~head ~tail in
    let early_exits =
      List.length
        (List.filter
           (fun (pc, i) ->
             pc <> tail
             &&
             match Insn.kind i with
             | Insn.K_branch | K_jump -> (
                 match Insn.ctrl_target i ~pc with
                 | Some t -> t < head || t > tail + 4
                 | None -> false)
             | _ -> false)
           win)
    in
    (* Expected dynamic instructions per iteration: flow-weighted window
       plus direct-callee bodies. *)
    let iter_insns =
      match (natural, entries, trip) with
      | Some l, Some e, Some t when t >= 1 ->
          let body =
            List.fold_left
              (fun acc b ->
                acc +. (flow.counts.(b) *. float_of_int (Cfg.n_insns (Cfg.block cfg b))))
              0. l.Loops.l_blocks
          in
          let callees =
            List.fold_left
              (fun acc b ->
                let blk = Cfg.block cfg b in
                match Cfg.last_insn cfg blk with
                | Insn.Jal tgt -> (
                    match Cfg.block_at cfg (4 * tgt) with
                    | Some cb -> (
                        match csize cb.Cfg.b_id with
                        | Ok s -> acc +. (flow.counts.(b) *. float_of_int s)
                        | Error _ -> acc)
                    | None -> acc)
                | _ -> acc)
              0. l.Loops.l_blocks
          in
          (body +. callees) /. (e *. float_of_int t)
      | _ -> float_of_int footprint
    in
    let unroll =
      if multi_iter then max 1 (int_of_float (float_of_int iq_size /. max 1. iter_insns))
      else 1
    in
    let reused_per_program =
      match (verdict, trip, entries) with
      | Ok (), Some t, Some e ->
          let spare = float_of_int (t - 1 - unroll) in
          Some (max 0. ((e *. spare) -. 1.) *. iter_insns)
      | Ok (), _, _ -> None
      | Error _, _, _ -> Some 0.
    in
    let prediction =
      match verdict with
      | Ok () -> (
          match trip with
          | None -> Marginal
          | Some t ->
              let margin = max 2 (unroll / 4) in
              let spare = t - 1 - unroll in
              if footprint >= iq_size - 4 then Marginal
              else if spare >= margin then Promotes
              else if spare <= -margin then Never_promotes
              else Marginal)
      | Error (Indirect _) | Error Side_entry -> Marginal
      | Error _ -> Never_promotes
    in
    let nblt_risk =
      early_exits > 0
      || (match (verdict, trip) with
         | Ok (), Some t -> t - 1 <= unroll
         | Error (Too_large _), _ -> false
         | Error _, _ -> true
         | Ok (), None -> false)
    in
    let risks =
      match (verdict, trip) with
      | Ok (), None -> [ Data_dependent_trip ]
      | _ -> []
    in
    let predicted_cause =
      match verdict with
      | Error (Inner_transfer _) | Error (Callee_loops _) -> Some Reuse_state.Rv_inner_loop
      | Error (Call_overflow _) -> Some Reuse_state.Rv_overflow
      | Ok () when prediction = Never_promotes -> Some Reuse_state.Rv_left_loop
      | _ -> None
    in
    {
      head;
      tail;
      span;
      depth;
      innermost;
      verdict;
      trip;
      entries;
      unroll;
      prediction;
      nblt_risk;
      reused_insns = reused_per_program;
      risks;
      predicted_cause;
    }
  in
  let loops =
    List.sort (fun a b -> compare a.tail b.tail) (List.map mk_report candidates)
  in
  let reused_total =
    List.fold_left (fun acc r -> acc +. Option.value ~default:0. r.reused_insns) 0. loops
  in
  let coverage =
    if total_insns > 0. then Some (100. *. reused_total /. total_insns) else None
  in
  let unreachable =
    Array.to_list cfg.Cfg.blocks
    |> List.filter_map (fun b ->
           if reach.(b.Cfg.b_id) then None else Some (b.Cfg.b_first, b.Cfg.b_last))
  in
  {
    iq_size;
    loops;
    total_insns;
    coverage;
    exact_trips = flow.exact;
    irreducible_edges = ls.Loops.irreducible;
    unreachable;
  }

let analyze_config (cfg : Riq_ooo.Config.t) program =
  analyze ~multi_iter:cfg.Riq_ooo.Config.buffer_multiple_iterations
    ~iq_size:cfg.Riq_ooo.Config.iq_entries program

let coverage_of report ~tail =
  match List.find_opt (fun r -> r.tail = tail) report.loops with
  | Some r when report.total_insns > 0. ->
      Option.map (fun reused -> 100. *. reused /. report.total_insns) r.reused_insns
  | _ -> None

(* A hard rejection is one whose offending condition the dynamic core is
   guaranteed to trip over on every path from head to tail: a too-large
   span is measured identically by the detector, and an inner back edge or
   a looping callee is decoded (and revokes buffering) even when the
   branch itself falls through. Call overflow, indirect transfers, side
   entries and irreducibility depend on the path actually executed, so a
   structured program can legitimately promote despite them. The fuzzer's
   generator never hides a hard-reject condition behind a guard, which is
   what makes this classification exact for generated programs. *)
let hard_reject = function
  | Too_large _ | Inner_transfer _ | Callee_loops _ -> true
  | Call_overflow _ | Indirect _ | Contains_halt _ | Side_entry | Irreducible -> false

(* Verdicts under which a dynamic inner-loop revoke (decode sees a second
   capturable backward transfer while buffering) is statically impossible:

   - [Ok], [Call_overflow], [Side_entry] and [Irreducible] all mean the
     window scan completed, so there is no backward transfer at a
     non-tail window pc and every direct callee is straight-line; decode
     while buffering either stays inside the window (seeing none) or
     leaves it, which fires the left-loop revoke first — even on the
     wrong path.
   - [Too_large] means the detector rejects the span before buffering
     ever starts, so no revoke of any kind can be attributed to the tail.

   The early-stopping scan errors ([Inner_transfer], [Callee_loops],
   [Indirect], [Contains_halt]) leave the rest of the window unscanned,
   so an inner revoke stays possible. *)
let inner_revoke_impossible l =
  match l.verdict with
  | Ok () | Error (Too_large _ | Call_overflow _ | Side_entry | Irreducible) ->
      true
  | Error (Inner_transfer _ | Callee_loops _ | Indirect _ | Contains_halt _) ->
      false

let consistency report (decisions : Processor.loop_decision list) =
  let promos_at tail =
    match List.find_opt (fun d -> d.Processor.ld_tail = tail) decisions with
    | Some d -> d.Processor.ld_promotions
    | None -> 0
  in
  let bad =
    List.filter_map
      (fun l ->
        match l.verdict with
        | Error r when hard_reject r && promos_at l.tail > 0 ->
            Some
              (Printf.sprintf "loop %08x..%08x promoted %d times despite static %s"
                 l.head l.tail (promos_at l.tail) (reason_to_string r))
        | _ -> None)
      report.loops
  in
  (* Promotions at a tail the analysis never saw would mean the CFG pass
     missed an executable backward transfer. *)
  let unknown =
    List.filter_map
      (fun { Processor.ld_tail = tail; ld_promotions = n; _ } ->
        if n > 0 && not (List.exists (fun l -> l.tail = tail) report.loops) then
          Some (Printf.sprintf "loop tail %08x promoted %d times but is unknown to the analysis" tail n)
        else None)
      decisions
  in
  (* A dynamic inner-loop revoke where the scan proved the window clean is
     a soundness bug in either the analysis or the core. *)
  let impossible_causes =
    List.filter_map
      (fun { Processor.ld_tail = tail; ld_rv_inner = inner; _ } ->
        match List.find_opt (fun l -> l.tail = tail) report.loops with
        | Some l when inner > 0 && inner_revoke_impossible l ->
            Some
              (Printf.sprintf
                 "loop %08x..%08x took %d inner-loop revokes despite a clean window scan (static verdict %s)"
                 l.head l.tail inner
                 (match l.verdict with
                 | Ok () -> "ok"
                 | Error r -> reason_to_string r))
        | _ -> None)
      decisions
  in
  match bad @ unknown @ impossible_causes with
  | [] -> Ok ()
  | msgs -> Error (String.concat "; " msgs)

open Riq_isa

type verdict = No_alias | No_alias_iter | May_alias

type pair = {
  p_store : int;
  p_load : int;
  p_store_bytes : int;
  p_load_bytes : int;
  p_verdict : verdict;
}

type window = { w_stores : int list; w_loads : int list; w_pairs : pair list }

(* Internal address classes; see the .mli for their guarantees. *)
type addr =
  | Abs of int * int (* concrete inclusive interval of start addresses *)
  | Sym of Reg.t * int (* loop-invariant base + constant offset *)
  | Ind of Reg.t * int * int (* induction base, step, constant offset *)
  | Unknown

let min_i32 = -0x8000_0000
let max_i32 = 0x7fff_ffff
let in32 lo hi = lo >= min_i32 && hi <= max_i32

let mem_operand = function
  | Insn.Lw (_, b, o)
  | Lb (_, b, o)
  | Lbu (_, b, o)
  | Lh (_, b, o)
  | Lhu (_, b, o)
  | Sw (_, b, o)
  | Sb (_, b, o)
  | Sh (_, b, o)
  | Lwf (_, b, o)
  | Swf (_, b, o) ->
      Some (b, o)
  | _ -> None

let window_insns cfg ~head ~tail =
  Array.fold_left
    (fun acc b ->
      List.fold_left
        (fun acc (pc, insn) ->
          if pc >= head && pc <= tail then (pc, insn) :: acc else acc)
        acc (Cfg.insns cfg b))
    [] cfg.Cfg.blocks
  |> List.sort compare

(* The unique in-window reaching definition of [base] at [pc], when it is
   the canonical induction update [base := base + step]. *)
let induction_step insns reaching ~head ~tail ~pc base =
  let in_window =
    List.filter
      (fun d -> d >= head && d <= tail)
      (Reaching.defs_of reaching ~pc base)
  in
  match in_window with
  | [ d ] -> (
      match List.assoc_opt d insns with
      | Some (Insn.Alui (Insn.Add, rt, rs, step)) when rt = base && rs = base ->
          Some step
      | _ -> None)
  | _ -> None

let classify cfg insns ~reaching ~values ~head ~tail ~outside_preds ~trip ~pc
    base off =
  ignore cfg;
  match Valrange.bounds (Valrange.value_at values ~pc base) with
  | Some (lo, hi) when in32 (lo + off) (hi + off) -> Abs (lo + off, hi + off)
  | Some _ -> Unknown
  | None -> (
      match induction_step insns reaching ~head ~tail ~pc base with
      | Some step -> (
          let head_block =
            match Cfg.block_at cfg head with
            | Some b -> b.Cfg.b_id
            | None -> -1
          in
          let entry =
            if head_block < 0 then Valrange.Top
            else
              Valrange.value_into values ~block:head_block ~from:outside_preds
                base
          in
          match (Valrange.const entry, trip) with
          | Some c, Some t
            when t >= 0
                 && in32 (c + off + min 0 (step * t))
                      (c + off + max 0 (step * t)) ->
              (* The tail branch exits after at most [t] updates, so over
                 the whole execution the start address stays inside the
                 swept interval (the access may sit before or after the
                 update in the body, hence the inclusive 0..t sweep). *)
              Abs (c + off + min 0 (step * t), c + off + max 0 (step * t))
          | _ -> Ind (base, step, off))
      | None ->
          if Reaching.invariant_in reaching ~head ~tail base then Sym (base, off)
          else Unknown)

let pair_verdict (sa, ws) (la, wl) =
  match (sa, la) with
  | Abs (sl, sh), Abs (ll, lh) ->
      if sh + ws - 1 < ll || lh + wl - 1 < sl then No_alias else May_alias
  | Sym (r1, o1), Sym (r2, o2) when r1 = r2 ->
      if o1 >= o2 + wl || o2 >= o1 + ws then No_alias_iter else May_alias
  | Ind (r1, s1, o1), Ind (r2, s2, o2) when r1 = r2 && s1 = s2 && s1 <> 0 ->
      (* Addresses differ by d*step + (o1-o2) for some integer d; no pair
         overlaps iff the residue keeps the store's ws bytes clear of the
         load's wl bytes for every d. *)
      let m = abs s1 in
      let r0 = (((o1 - o2) mod m) + m) mod m in
      if r0 >= ws && r0 <= m - wl then No_alias_iter else May_alias
  | _ -> May_alias

let window cfg ~reaching ~values ~head ~tail ~outside_preds ~trip =
  let insns = window_insns cfg ~head ~tail in
  let accesses k =
    List.filter_map
      (fun (pc, insn) ->
        if Insn.kind insn <> k then None
        else
          match mem_operand insn with
          | None -> None
          | Some (base, off) ->
              let a =
                classify cfg insns ~reaching ~values ~head ~tail ~outside_preds
                  ~trip ~pc base off
              in
              Some (pc, a, Insn.access_bytes insn))
      insns
  in
  let stores = accesses Insn.K_store and loads = accesses Insn.K_load in
  let pairs =
    List.concat_map
      (fun (spc, sa, ws) ->
        List.map
          (fun (lpc, la, wl) ->
            {
              p_store = spc;
              p_load = lpc;
              p_store_bytes = ws;
              p_load_bytes = wl;
              p_verdict = pair_verdict (sa, ws) (la, wl);
            })
          loads)
      stores
  in
  {
    w_stores = List.map (fun (pc, _, _) -> pc) stores;
    w_loads = List.map (fun (pc, _, _) -> pc) loads;
    w_pairs = pairs;
  }

let no_alias_claims w =
  List.filter (fun p -> p.p_verdict = No_alias) w.w_pairs

let may_alias w = List.filter (fun p -> p.p_verdict = May_alias) w.w_pairs

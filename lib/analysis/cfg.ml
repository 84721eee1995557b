open Riq_isa
open Riq_asm

type block = {
  b_id : int;
  b_first : int;
  b_last : int;
  mutable b_succs : int list;
  mutable b_preds : int list;
  b_indirect : bool;
  b_call : bool;
}

type t = { program : Program.t; blocks : block array; entry : int }

let n_blocks t = Array.length t.blocks
let block t i = t.blocks.(i)
let n_insns b = ((b.b_last - b.b_first) / 4) + 1

(* Whether control falls through from an instruction to its successor
   address. Conditional branches and calls do; unconditional jumps, returns
   and halt do not. *)
let falls_through insn =
  match Insn.kind insn with
  | Insn.K_jump | K_ijump | K_return | K_halt -> false
  | K_branch | K_call | K_int | K_fp | K_load | K_store | K_nop -> true

(* [la rX, L; jr rX] — the assembler's expansion of a jump to a constant
   label. When the lui/ori pair sits in the same block as the [jr] (no
   leader between them), the register can only hold that label's address
   at the jump, so the transfer is as static as a direct jump. [first]
   bounds the backward look; returns the byte target. *)
let resolved_ijump_target program ~first ~pc insn =
  match insn with
  | Insn.Jr r when r <> Reg.ra && pc - 8 >= first -> (
      let base = program.Program.text_base in
      let at a = program.Program.code.((a - base) / 4) in
      match (at (pc - 8), at (pc - 4)) with
      | Insn.Lui (r1, hi), Insn.Alui (Insn.Or, r2, r3, lo)
        when r1 = r && r2 = r && r3 = r ->
          Some ((hi lsl 16) lor lo)
      | _ -> None)
  | _ -> None

(* Statically-known successor addresses of the instruction at [pc], within
   the text segment. *)
let succ_addrs program ~pc insn =
  let base = program.Program.text_base in
  let limit = base + Program.size_bytes program in
  let in_text a = a >= base && a < limit in
  let tgt =
    match Insn.kind insn with
    | Insn.K_branch | K_jump -> Insn.ctrl_target insn ~pc
    | K_call -> (
        match insn with Insn.Jal t -> Some (4 * t) | _ -> None (* jalr: unknown *))
    | K_ijump | K_return | K_int | K_fp | K_load | K_store | K_nop | K_halt -> None
  in
  let fall = if falls_through insn && in_text (pc + 4) then [ pc + 4 ] else [] in
  match tgt with
  | Some a when in_text a && not (List.mem a fall) -> fall @ [ a ]
  | Some _ | None -> fall

let build program =
  let base = program.Program.text_base in
  let n = Array.length program.Program.code in
  let limit = base + (4 * n) in
  if program.Program.entry < base || program.Program.entry >= limit then
    invalid_arg "Cfg.build: entry point outside the text segment";
  let insn_at pc = program.Program.code.((pc - base) / 4) in
  (* Pass 1: leaders. *)
  let leader = Array.make n false in
  let mark pc = if pc >= base && pc < limit then leader.((pc - base) / 4) <- true in
  mark base;
  mark program.Program.entry;
  for i = 0 to n - 1 do
    let pc = base + (4 * i) in
    let insn = insn_at pc in
    if Insn.is_ctrl insn || Insn.kind insn = Insn.K_halt then begin
      mark (pc + 4);
      match Insn.kind insn with
      | Insn.K_branch | K_jump -> Option.iter mark (Insn.ctrl_target insn ~pc)
      | K_call -> ( match insn with Insn.Jal t -> mark (4 * t) | _ -> ())
      | K_ijump ->
          (* Over-approximation is harmless here: the same-block condition
             is re-checked against the final leaders in passes 2 and 3. *)
          Option.iter mark (resolved_ijump_target program ~first:base ~pc insn)
      | K_return | K_int | K_fp | K_load | K_store | K_nop | K_halt -> ()
    end
  done;
  (* Pass 2: blocks. *)
  let blocks = ref [] in
  let start = ref 0 in
  let nb = ref 0 in
  let id_of_word = Array.make n (-1) in
  for i = 0 to n - 1 do
    let last_of_block = i = n - 1 || leader.(i + 1) in
    if last_of_block then begin
      let first = base + (4 * !start) and last = base + (4 * i) in
      let insn = insn_at last in
      let kind = Insn.kind insn in
      let resolved =
        kind = Insn.K_ijump
        && resolved_ijump_target program ~first ~pc:last insn <> None
      in
      blocks :=
        {
          b_id = !nb;
          b_first = first;
          b_last = last;
          b_succs = [];
          b_preds = [];
          b_indirect =
            (match kind with
            | Insn.K_ijump -> not resolved
            | K_return -> true
            | _ -> false);
          b_call = (match kind with Insn.K_call -> true | _ -> false);
        }
        :: !blocks;
      for w = !start to i do
        id_of_word.(w) <- !nb
      done;
      incr nb;
      start := i + 1
    end
  done;
  let blocks = Array.of_list (List.rev !blocks) in
  (* Pass 3: edges. *)
  Array.iter
    (fun b ->
      let insn = insn_at b.b_last in
      let addrs =
        match resolved_ijump_target program ~first:b.b_first ~pc:b.b_last insn with
        | Some t when t >= base && t < limit -> [ t ]
        | Some _ | None -> succ_addrs program ~pc:b.b_last insn
      in
      let succs = List.map (fun a -> id_of_word.((a - base) / 4)) addrs in
      b.b_succs <- succs;
      List.iter (fun s -> blocks.(s).b_preds <- b.b_id :: blocks.(s).b_preds) succs)
    blocks;
  Array.iter (fun b -> b.b_preds <- List.rev b.b_preds) blocks;
  { program; blocks; entry = id_of_word.((program.Program.entry - base) / 4) }

let block_at t pc =
  let n = Array.length t.blocks in
  let rec bsearch lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let b = t.blocks.(mid) in
      if pc < b.b_first then bsearch lo (mid - 1)
      else if pc > b.b_last then bsearch (mid + 1) hi
      else Some b
  in
  bsearch 0 (n - 1)

let insns t b =
  let rec go pc acc =
    if pc > b.b_last then List.rev acc
    else
      match Program.insn_at t.program pc with
      | Some i -> go (pc + 4) ((pc, i) :: acc)
      | None -> List.rev acc
  in
  go b.b_first []

let last_insn t b =
  match Program.insn_at t.program b.b_last with
  | Some i -> i
  | None -> assert false

let reachable t =
  let n = Array.length t.blocks in
  let seen = Array.make n false in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs t.blocks.(i).b_succs
    end
  in
  dfs t.entry;
  seen

let reverse_postorder t =
  let n = Array.length t.blocks in
  let seen = Array.make n false in
  let post = ref [] in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs t.blocks.(i).b_succs;
      post := i :: !post
    end
  in
  dfs t.entry;
  let order = !post in
  (* Unreachable blocks after the reachable ones, in address order. *)
  let rest = List.filter (fun i -> not seen.(i)) (List.init n Fun.id) in
  Array.of_list (order @ rest)

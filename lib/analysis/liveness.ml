open Riq_isa

module L = struct
  type fact = Int64.t

  let name = "liveness"
  let bottom = 0L
  let equal = Int64.equal
  let join = Int64.logor
  let widen = join
end

module Solver = Dataflow.Make (L)

type t = { cfg : Cfg.t; sol : Solver.result }

let bit r = Int64.shift_left 1L r
let mem set r = Int64.logand set (bit r) <> 0L
let add set r = Int64.logor set (bit r)

let cardinal set =
  let rec go x n = if x = 0L then n else go (Int64.logand x (Int64.sub x 1L)) (n + 1) in
  go set 0

(* Conservative live-out at a return: scalar pools, sp, ra. The codegen
   conventions (see Codegen's docs) keep long-lived values in r16-r28 and
   f16-f31; everything below is expression-temporary. *)
let return_live_out =
  let s = ref 0L in
  for r = 16 to 28 do
    s := add !s (Reg.r r)
  done;
  for f = 16 to 31 do
    s := add !s (Reg.f f)
  done;
  s := add !s Reg.sp;
  s := add !s Reg.ra;
  !s

(* use/def transfer of one instruction. [r0] is excluded from [sources]
   already and never a dest. *)
let gen insn = List.fold_left add 0L (Insn.sources insn)

let kill insn = match Insn.dest insn with Some d -> bit d | None -> 0L
let step live insn = Int64.logor (gen insn) (Int64.logand live (Int64.lognot (kill insn)))

let transfer_block cfg b out =
  (* Backward over the block's instructions. *)
  List.fold_left (fun live (_, insn) -> step live insn) out (List.rev (Cfg.insns cfg b))

(* The fact at a block's exit. A block without successors gets the
   solver's boundary, the empty set, unless it ends in an indirect
   transfer: a return, after which [return_live_out] stays live. *)
let exit_fact (blk : Cfg.block) fact =
  if blk.Cfg.b_succs = [] && blk.Cfg.b_indirect then return_live_out else fact

let compute (cfg : Cfg.t) =
  let transfer b out =
    let blk = Cfg.block cfg b in
    transfer_block cfg blk (exit_fact blk out)
  in
  { cfg; sol = Solver.solve_cfg ~direction:Dataflow.Backward ~transfer cfg }

let live_in t b = t.sol.Solver.output.(b)
let live_out t b = exit_fact (Cfg.block t.cfg b) t.sol.Solver.input.(b)

let live_before t ~pc =
  match Cfg.block_at t.cfg pc with
  | None -> invalid_arg "Liveness.live_before: pc outside the text segment"
  | Some b ->
      List.fold_left
        (fun live (ipc, insn) -> if ipc >= pc then step live insn else live)
        (live_out t b.Cfg.b_id)
        (List.rev (Cfg.insns t.cfg b))

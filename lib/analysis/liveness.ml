open Riq_isa

type t = { cfg : Cfg.t; l_in : Int64.t array; l_out : Int64.t array }

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

let transfer_block cfg b out =
  (* Backward over the block's instructions. *)
  let is_ = Cfg.insns cfg b in
  List.fold_left
    (fun live (_, insn) -> Int64.logor (gen insn) (Int64.logand live (Int64.lognot (kill insn))))
    out (List.rev is_)

let compute (cfg : Cfg.t) =
  let n = Cfg.n_blocks cfg in
  let l_in = Array.make n 0L and l_out = Array.make n 0L in
  let rpo = Cfg.reverse_postorder cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Postorder (reverse of RPO) converges fastest for backward flow. *)
    for i = Array.length rpo - 1 downto 0 do
      let b = rpo.(i) in
      let blk = Cfg.block cfg b in
      let out =
        match blk.Cfg.b_succs with
        | [] -> if blk.Cfg.b_indirect then return_live_out else 0L
        | succs -> List.fold_left (fun acc s -> Int64.logor acc l_in.(s)) 0L succs
      in
      let inn = transfer_block cfg blk out in
      if out <> l_out.(b) || inn <> l_in.(b) then begin
        l_out.(b) <- out;
        l_in.(b) <- inn;
        changed := true
      end
    done
  done;
  { cfg; l_in; l_out }

let live_in t b = t.l_in.(b)
let live_out t b = t.l_out.(b)

let live_before t ~pc =
  match Cfg.block_at t.cfg pc with
  | None -> invalid_arg "Liveness.live_before: pc outside the text segment"
  | Some b ->
      let is_ = Cfg.insns t.cfg b in
      List.fold_left
        (fun live (ipc, insn) ->
          if ipc >= pc then
            Int64.logor (gen insn) (Int64.logand live (Int64.lognot (kill insn)))
          else live)
        t.l_out.(b.Cfg.b_id) (List.rev is_)

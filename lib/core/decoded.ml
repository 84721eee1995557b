open Riq_util
open Riq_isa
open Riq_asm
open Riq_interp

(* Struct-of-arrays side tables for one program, built once at
   [Processor.create]: the per-instruction properties the pipeline's
   bookkeeping reads (kind, unit, latency, operand registers, widths),
   pre-derived from the program's instructions so dispatch, issue and
   commit index flat arrays — no option or tuple allocation, no
   per-cycle re-derivation. Execute and load extension match the
   instruction itself, [code.(wi)], exactly as [Machine.step] does; the
   tables carry no execution or extension codes.

   Indexing is by word index [wi = (pc - text_base) / 4]; [valid] tells
   whether a pc maps into the text segment at all (the flat-array
   replacement for [Program.insn_at]).

   Immediates are pre-transformed to what the execute stage consumes:
   ALU immediates go through [Semantics.alui_imm] (sign/zero extension
   per opcode), [Lui]'s shift is pre-applied, branch and direct-jump
   targets are absolute byte addresses in [target]. *)

type t = {
  n : int;
  text_base : int;
  code : Insn.t array;  (** the program's own instruction array *)
  kind : Insn.kind array;
  fu : Insn.fu_class array;
  lat : int array;
  pipe : bool array;
  is_ctrl : bool array;
  is_mem : bool array;
  is_store : bool array;
  is_fp_mem : bool array;
  width : int array;  (** access bytes, 0 for non-memory *)
  amask : int array;  (** width - 1, for alignment checks *)
  r1 : int array;  (** first operand register, -1 = none (r0 filtered) *)
  r2 : int array;  (** second operand register (store data), -1 = none *)
  dst : int array;  (** destination register, -1 = none *)
  imm : int array;  (** pre-transformed immediate / shift amount / offset *)
  target : int array;  (** absolute static taken target, -1 = unknown *)
}

let wi_of_pc t pc = (pc - t.text_base) asr 2
let pc_of_wi t wi = t.text_base + (wi lsl 2)
let valid t pc = pc land 3 = 0 && pc >= t.text_base && wi_of_pc t pc < t.n

(* The Section 2.1 loop check: the static span of a backward conditional
   branch or direct jump at word [wi] (both always carry a static
   target), or 0 when the instruction is neither. The loop is capturable
   when the span is at most the issue-queue size. *)
let loop_span t wi =
  match t.kind.(wi) with
  | Insn.K_branch | K_jump ->
      let pc = pc_of_wi t wi and head = t.target.(wi) in
      if head <= pc then ((pc - head) / 4) + 1 else 0
  | K_call | K_return | K_ijump | K_int | K_fp | K_load | K_store | K_nop | K_halt -> 0

(* Operand registers exactly as the seed core's [operand_regs]: integer
   registers are filtered through "r0 is never a dependence", FP
   registers are not; for stores r1 is the base and r2 the data. *)
let operand_regs insn =
  let z r = if r = Reg.zero then -1 else r in
  match insn with
  | Insn.Alu (_, _, rs, rt) | Mul (_, rs, rt) | Div (_, rs, rt) -> (z rs, z rt)
  | Alui (_, _, rs, _) -> (z rs, -1)
  | Shift (_, _, rt, _) -> (z rt, -1)
  | Shiftv (_, _, rt, rs) -> (z rt, z rs)
  | Lui _ -> (-1, -1)
  | Fpu (op, _, fs, ft) -> if Insn.fpu_unary op then (fs, -1) else (fs, ft)
  | Fcmp (_, _, fs, ft) -> (fs, ft)
  | Cvtsw (_, rs) -> (z rs, -1)
  | Cvtws (_, fs) -> (fs, -1)
  | Lw (_, base, _) | Lb (_, base, _) | Lbu (_, base, _) | Lh (_, base, _)
  | Lhu (_, base, _) | Lwf (_, base, _) ->
      (z base, -1)
  | Sw (rt, base, _) | Sb (rt, base, _) | Sh (rt, base, _) -> (z base, z rt)
  | Swf (ft, base, _) -> (z base, ft)
  | Br (cond, rs, rt, _) -> (
      match cond with
      | Beq | Bne -> (z rs, z rt)
      | Blez | Bgtz | Bltz | Bgez -> (z rs, -1))
  | Jr rs | Jalr (_, rs) -> (z rs, -1)
  | J _ | Jal _ | Nop | Halt -> (-1, -1)

let exec_imm insn =
  match insn with
  | Insn.Alui (op, _, _, imm) -> Semantics.alui_imm op imm
  | Shift (_, _, _, sh) -> sh
  | Lui (_, imm) -> Bits.of_i32 (imm lsl 16)
  | Lw (_, _, off) | Lb (_, _, off) | Lbu (_, _, off) | Lh (_, _, off)
  | Lhu (_, _, off) | Lwf (_, _, off) | Sw (_, _, off) | Sb (_, _, off)
  | Sh (_, _, off) | Swf (_, _, off) ->
      off
  | _ -> 0

let of_program (p : Program.t) =
  let code = p.Program.code in
  let n = Array.length code in
  let text_base = p.Program.text_base in
  let t =
    {
      n;
      text_base;
      code;
      kind = Array.make n Insn.K_nop;
      fu = Array.make n Insn.FU_none;
      lat = Array.make n 1;
      pipe = Array.make n true;
      is_ctrl = Array.make n false;
      is_mem = Array.make n false;
      is_store = Array.make n false;
      is_fp_mem = Array.make n false;
      width = Array.make n 0;
      amask = Array.make n 0;
      r1 = Array.make n (-1);
      r2 = Array.make n (-1);
      dst = Array.make n (-1);
      imm = Array.make n 0;
      target = Array.make n (-1);
    }
  in
  for wi = 0 to n - 1 do
    let insn = code.(wi) in
    let pc = pc_of_wi t wi in
    t.kind.(wi) <- Insn.kind insn;
    t.fu.(wi) <- Insn.fu insn;
    t.lat.(wi) <- Insn.latency insn;
    t.pipe.(wi) <- Insn.pipelined insn;
    (match t.kind.(wi) with
    | Insn.K_branch | K_jump | K_call | K_return | K_ijump -> t.is_ctrl.(wi) <- true
    | K_int | K_fp | K_load | K_store | K_nop | K_halt -> ());
    (match t.kind.(wi) with
    | Insn.K_load | K_store ->
        t.is_mem.(wi) <- true;
        t.is_store.(wi) <- t.kind.(wi) = Insn.K_store;
        t.is_fp_mem.(wi) <- (match insn with Insn.Lwf _ | Swf _ -> true | _ -> false);
        t.width.(wi) <- Insn.access_bytes insn;
        t.amask.(wi) <- t.width.(wi) - 1
    | _ -> ());
    let r1, r2 = operand_regs insn in
    t.r1.(wi) <- r1;
    t.r2.(wi) <- r2;
    t.dst.(wi) <- (match Insn.dest insn with Some d -> d | None -> -1);
    t.imm.(wi) <- exec_imm insn;
    t.target.(wi) <-
      (match Insn.ctrl_target insn ~pc with Some tgt -> tgt | None -> -1)
  done;
  t

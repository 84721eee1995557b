type alu_op = Add | Sub | And | Or | Xor | Nor | Slt | Sltu
type shift_op = Sll | Srl | Sra
type fpu_op = Fadd | Fsub | Fmul | Fdiv | Fsqrt | Fneg | Fabs | Fmov
type fcmp_op = Feq | Flt | Fle
type cond = Beq | Bne | Blez | Bgtz | Bltz | Bgez

type t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t
  | Alui of alu_op * Reg.t * Reg.t * int
  | Shift of shift_op * Reg.t * Reg.t * int
  | Shiftv of shift_op * Reg.t * Reg.t * Reg.t
  | Lui of Reg.t * int
  | Mul of Reg.t * Reg.t * Reg.t
  | Div of Reg.t * Reg.t * Reg.t
  | Fpu of fpu_op * Reg.t * Reg.t * Reg.t
  | Fcmp of fcmp_op * Reg.t * Reg.t * Reg.t
  | Cvtsw of Reg.t * Reg.t
  | Cvtws of Reg.t * Reg.t
  | Lw of Reg.t * Reg.t * int
  | Lb of Reg.t * Reg.t * int
  | Lbu of Reg.t * Reg.t * int
  | Lh of Reg.t * Reg.t * int
  | Lhu of Reg.t * Reg.t * int
  | Sw of Reg.t * Reg.t * int
  | Sb of Reg.t * Reg.t * int
  | Sh of Reg.t * Reg.t * int
  | Lwf of Reg.t * Reg.t * int
  | Swf of Reg.t * Reg.t * int
  | Br of cond * Reg.t * Reg.t * int
  | J of int
  | Jal of int
  | Jr of Reg.t
  | Jalr of Reg.t * Reg.t
  | Nop
  | Halt

type fu_class = FU_none | FU_ialu | FU_imult | FU_fpalu | FU_fpmult | FU_mem

type kind =
  | K_int
  | K_fp
  | K_load
  | K_store
  | K_branch
  | K_jump
  | K_call
  | K_return
  | K_ijump
  | K_nop
  | K_halt

let fpu_unary = function
  | Fsqrt | Fneg | Fabs | Fmov -> true
  | Fadd | Fsub | Fmul | Fdiv -> false

let kind = function
  | Alu _ | Alui _ | Shift _ | Shiftv _ | Lui _ | Mul _ | Div _ | Fcmp _ | Cvtws _ -> K_int
  | Fpu _ | Cvtsw _ -> K_fp
  | Lw _ | Lb _ | Lbu _ | Lh _ | Lhu _ | Lwf _ -> K_load
  | Sw _ | Sb _ | Sh _ | Swf _ -> K_store
  | Br _ -> K_branch
  | J _ -> K_jump
  | Jal _ | Jalr _ -> K_call
  | Jr rs -> if rs = Reg.ra then K_return else K_ijump
  | Nop -> K_nop
  | Halt -> K_halt

let fu = function
  | Alu _ | Alui _ | Shift _ | Shiftv _ | Lui _ | Br _ | J _ | Jal _ | Jr _ | Jalr _
  | Fcmp _ | Cvtws _ | Cvtsw _ ->
      FU_ialu
  | Mul _ | Div _ -> FU_imult
  | Fpu (op, _, _, _) -> (
      match op with
      | Fmul | Fdiv | Fsqrt -> FU_fpmult
      | Fadd | Fsub | Fneg | Fabs | Fmov -> FU_fpalu)
  | Lw _ | Lb _ | Lbu _ | Lh _ | Lhu _ | Sw _ | Sb _ | Sh _ | Lwf _ | Swf _ -> FU_mem
  | Nop | Halt -> FU_none

let latency = function
  | Mul _ -> 3
  | Div _ -> 20
  | Fpu (op, _, _, _) -> (
      match op with
      | Fadd | Fsub -> 2
      | Fmul -> 4
      | Fdiv -> 12
      | Fsqrt -> 24
      | Fneg | Fabs | Fmov -> 1)
  | Fcmp _ | Cvtsw _ | Cvtws _ -> 2
  | Alu _ | Alui _ | Shift _ | Shiftv _ | Lui _ | Br _ | J _ | Jal _ | Jr _ | Jalr _
  | Lw _ | Lb _ | Lbu _ | Lh _ | Lhu _ | Sw _ | Sb _ | Sh _ | Lwf _ | Swf _ | Nop | Halt ->
      1

let pipelined = function
  | Div _ -> false
  | Fpu (Fdiv, _, _, _) | Fpu (Fsqrt, _, _, _) -> false
  | Alu _ | Alui _ | Shift _ | Shiftv _ | Lui _ | Mul _ | Fpu _ | Fcmp _ | Cvtsw _
  | Cvtws _ | Lw _ | Lb _ | Lbu _ | Lh _ | Lhu _ | Sw _ | Sb _ | Sh _ | Lwf _ | Swf _
  | Br _ | J _ | Jal _ | Jr _ | Jalr _ | Nop | Halt ->
      true

let non_zero rs l = if rs = Reg.zero then l else rs :: l

let sources = function
  | Alu (_, _, rs, rt) | Mul (_, rs, rt) | Div (_, rs, rt) -> non_zero rs (non_zero rt [])
  | Alui (_, _, rs, _) -> non_zero rs []
  | Shift (_, _, rt, _) -> non_zero rt []
  | Shiftv (_, _, rt, rs) -> non_zero rt (non_zero rs [])
  | Lui (_, _) -> []
  | Fpu (op, _, fs, ft) -> if fpu_unary op then [ fs ] else [ fs; ft ]
  | Fcmp (_, _, fs, ft) -> [ fs; ft ]
  | Cvtsw (_, rs) -> non_zero rs []
  | Cvtws (_, fs) -> [ fs ]
  | Lw (_, base, _) | Lb (_, base, _) | Lbu (_, base, _) | Lh (_, base, _)
  | Lhu (_, base, _) | Lwf (_, base, _) ->
      non_zero base []
  | Sw (rt, base, _) | Sb (rt, base, _) | Sh (rt, base, _) -> non_zero rt (non_zero base [])
  | Swf (ft, base, _) -> ft :: non_zero base []
  | Br (cond, rs, rt, _) -> (
      match cond with
      | Beq | Bne -> non_zero rs (non_zero rt [])
      | Blez | Bgtz | Bltz | Bgez -> non_zero rs [])
  | J _ | Jal _ -> []
  | Jr rs | Jalr (_, rs) -> non_zero rs []
  | Nop | Halt -> []

let dest insn =
  let d r = if r = Reg.zero then None else Some r in
  match insn with
  | Alu (_, rd, _, _)
  | Shift (_, rd, _, _)
  | Shiftv (_, rd, _, _)
  | Mul (rd, _, _)
  | Div (rd, _, _)
  | Fcmp (_, rd, _, _)
  | Cvtws (rd, _)
  | Jalr (rd, _) ->
      d rd
  | Alui (_, rt, _, _) | Lui (rt, _) | Lw (rt, _, _) | Lb (rt, _, _) | Lbu (rt, _, _)
  | Lh (rt, _, _) | Lhu (rt, _, _) ->
      d rt
  | Fpu (_, fd, _, _) | Cvtsw (fd, _) | Lwf (fd, _, _) -> Some fd
  | Jal _ -> Some Reg.ra
  | Sw _ | Sb _ | Sh _ | Swf _ | Br _ | J _ | Jr _ | Nop | Halt -> None

let access_bytes = function
  | Lw _ | Sw _ | Lwf _ | Swf _ -> 4
  | Lh _ | Lhu _ | Sh _ -> 2
  | Lb _ | Lbu _ | Sb _ -> 1
  | Alu _ | Alui _ | Shift _ | Shiftv _ | Lui _ | Mul _ | Div _ | Fpu _ | Fcmp _
  | Cvtsw _ | Cvtws _ | Br _ | J _ | Jal _ | Jr _ | Jalr _ | Nop | Halt ->
      invalid_arg "Insn.access_bytes: not a memory operation"

let is_ctrl insn =
  match kind insn with
  | K_branch | K_jump | K_call | K_return | K_ijump -> true
  | K_int | K_fp | K_load | K_store | K_nop | K_halt -> false

let ctrl_target insn ~pc =
  match insn with
  | Br (_, _, _, off) -> Some (pc + 4 + (4 * off))
  | J tgt | Jal tgt -> Some (4 * tgt)
  | Jr _ | Jalr _ -> None
  | Alu _ | Alui _ | Shift _ | Shiftv _ | Lui _ | Mul _ | Div _ | Fpu _ | Fcmp _
  | Cvtsw _ | Cvtws _ | Lw _ | Lb _ | Lbu _ | Lh _ | Lhu _ | Sw _ | Sb _ | Sh _
  | Lwf _ | Swf _ | Nop | Halt ->
      None

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Nor -> "nor"
  | Slt -> "slt"
  | Sltu -> "sltu"

let shift_name = function Sll -> "sll" | Srl -> "srl" | Sra -> "sra"

let fpu_name = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"
  | Fsqrt -> "fsqrt"
  | Fneg -> "fneg"
  | Fabs -> "fabs"
  | Fmov -> "fmov"

let fcmp_name = function Feq -> "feq" | Flt -> "flt" | Fle -> "fle"

let cond_name = function
  | Beq -> "beq"
  | Bne -> "bne"
  | Blez -> "blez"
  | Bgtz -> "bgtz"
  | Bltz -> "bltz"
  | Bgez -> "bgez"

let rs = Reg.to_string

let to_string insn =
  match insn with
  | Alu (op, rd, r1, r2) -> Printf.sprintf "%s %s, %s, %s" (alu_name op) (rs rd) (rs r1) (rs r2)
  | Alui (op, rt, r1, imm) ->
      let mnemonic = match op with Sltu -> "sltiu" | _ -> alu_name op ^ "i" in
      Printf.sprintf "%s %s, %s, %d" mnemonic (rs rt) (rs r1) imm
  | Shift (op, rd, rt, sh) -> Printf.sprintf "%s %s, %s, %d" (shift_name op) (rs rd) (rs rt) sh
  | Shiftv (op, rd, rt, r1) ->
      Printf.sprintf "%sv %s, %s, %s" (shift_name op) (rs rd) (rs rt) (rs r1)
  | Lui (rt, imm) -> Printf.sprintf "lui %s, %d" (rs rt) imm
  | Mul (rd, r1, r2) -> Printf.sprintf "mul %s, %s, %s" (rs rd) (rs r1) (rs r2)
  | Div (rd, r1, r2) -> Printf.sprintf "div %s, %s, %s" (rs rd) (rs r1) (rs r2)
  | Fpu (op, fd, fs, ft) ->
      if fpu_unary op then Printf.sprintf "%s %s, %s" (fpu_name op) (rs fd) (rs fs)
      else Printf.sprintf "%s %s, %s, %s" (fpu_name op) (rs fd) (rs fs) (rs ft)
  | Fcmp (op, rd, fs, ft) ->
      Printf.sprintf "%s %s, %s, %s" (fcmp_name op) (rs rd) (rs fs) (rs ft)
  | Cvtsw (fd, r1) -> Printf.sprintf "cvtsw %s, %s" (rs fd) (rs r1)
  | Cvtws (rd, fs) -> Printf.sprintf "cvtws %s, %s" (rs rd) (rs fs)
  | Lw (rt, base, off) -> Printf.sprintf "lw %s, %d(%s)" (rs rt) off (rs base)
  | Lb (rt, base, off) -> Printf.sprintf "lb %s, %d(%s)" (rs rt) off (rs base)
  | Lbu (rt, base, off) -> Printf.sprintf "lbu %s, %d(%s)" (rs rt) off (rs base)
  | Lh (rt, base, off) -> Printf.sprintf "lh %s, %d(%s)" (rs rt) off (rs base)
  | Lhu (rt, base, off) -> Printf.sprintf "lhu %s, %d(%s)" (rs rt) off (rs base)
  | Sw (rt, base, off) -> Printf.sprintf "sw %s, %d(%s)" (rs rt) off (rs base)
  | Sb (rt, base, off) -> Printf.sprintf "sb %s, %d(%s)" (rs rt) off (rs base)
  | Sh (rt, base, off) -> Printf.sprintf "sh %s, %d(%s)" (rs rt) off (rs base)
  | Lwf (ft, base, off) -> Printf.sprintf "l.s %s, %d(%s)" (rs ft) off (rs base)
  | Swf (ft, base, off) -> Printf.sprintf "s.s %s, %d(%s)" (rs ft) off (rs base)
  | Br (cond, r1, r2, off) -> (
      match cond with
      | Beq | Bne -> Printf.sprintf "%s %s, %s, %d" (cond_name cond) (rs r1) (rs r2) off
      | Blez | Bgtz | Bltz | Bgez -> Printf.sprintf "%s %s, %d" (cond_name cond) (rs r1) off)
  | J tgt -> Printf.sprintf "j %d" tgt
  | Jal tgt -> Printf.sprintf "jal %d" tgt
  | Jr r1 -> Printf.sprintf "jr %s" (rs r1)
  | Jalr (rd, r1) -> Printf.sprintf "jalr %s, %s" (rs rd) (rs r1)
  | Nop -> "nop"
  | Halt -> "halt"

let equal (a : t) (b : t) = a = b

open Riq_util
open Riq_isa
open Riq_asm
open Riq_mem

type t = {
  program : Program.t;
  memory : Store.t;
  int_regs : int array;
  fp_regs : float array;
  mutable pc : int;
  mutable count : int;
  mutable halted : bool;
}

type stop = Halted | Insn_limit | Bad_pc of int

let default_sp = 0x7FFF_F000

let create program =
  let memory = Store.create () in
  Program.load program ~write_word:(Store.write_word memory);
  let int_regs = Array.make 32 0 in
  int_regs.(Reg.sp) <- default_sp;
  {
    program;
    memory;
    int_regs;
    fp_regs = Array.make 32 0.;
    pc = program.Program.entry;
    count = 0;
    halted = false;
  }

let pc t = t.pc
let insn_count t = t.count
let mem t = t.memory

let reg t r =
  if Reg.is_fp r then invalid_arg "Machine.reg: FP register";
  Bits.of_i32 t.int_regs.(Reg.index r)

let freg t r =
  if not (Reg.is_fp r) then invalid_arg "Machine.freg: integer register";
  t.fp_regs.(Reg.index r)

(* Operand access as top-level functions, so [step] builds no closures.
   A [Reg.t] indexes its file directly: integer registers are their own
   index, FP register numbers are offset by 32 (see {!Reg}). *)
let rv_ t r = Bits.of_i32 t.int_regs.(r)
let fv_ t r = t.fp_regs.(r - 32)
let wr_ t r v = if r <> 0 then t.int_regs.(r) <- Bits.of_i32 v
let wf_ t r v = t.fp_regs.(r - 32) <- Semantics.to_single v
let addr t base off = Bits.add32 (rv_ t base) off

let step t =
  let byte = t.pc - t.program.Program.text_base in
  if t.halted then Some Halted
  else if t.pc land 3 <> 0 || byte < 0 || byte >= 4 * Array.length t.program.Program.code then
    Some (Bad_pc t.pc)
  else begin
    let next = t.pc + 4 in
    let new_pc = ref next in
    (match t.program.Program.code.(byte lsr 2) with
    | Insn.Alu (op, rd, rs, rt) -> wr_ t rd (Semantics.alu op (rv_ t rs) (rv_ t rt))
    | Alui (op, rt, rs, imm) -> wr_ t rt (Semantics.alu op (rv_ t rs) (Semantics.alui_imm op imm))
    | Shift (op, rd, rt, sh) -> wr_ t rd (Semantics.shift op (rv_ t rt) sh)
    | Shiftv (op, rd, rt, rs) -> wr_ t rd (Semantics.shift op (rv_ t rt) (rv_ t rs))
    | Lui (rt, imm) -> wr_ t rt (Bits.of_i32 (imm lsl 16))
    | Mul (rd, rs, rt) -> wr_ t rd (Semantics.mul (rv_ t rs) (rv_ t rt))
    | Div (rd, rs, rt) -> wr_ t rd (Semantics.div (rv_ t rs) (rv_ t rt))
    | Fpu (op, fd, fs, ft) -> wf_ t fd (Semantics.fpu op (fv_ t fs) (fv_ t ft))
    | Fcmp (op, rd, fs, ft) -> wr_ t rd (Semantics.fcmp op (fv_ t fs) (fv_ t ft))
    | Cvtsw (fd, rs) -> wf_ t fd (Semantics.cvt_s_w (rv_ t rs))
    | Cvtws (rd, fs) -> wr_ t rd (Semantics.cvt_w_s (fv_ t fs))
    | Lw (rt, base, off) -> wr_ t rt (Store.read_word t.memory (addr t base off))
    | Lb (rt, base, off) ->
        wr_ t rt (Bits.sign_extend (Store.read_byte t.memory (addr t base off)) ~width:8)
    | Lbu (rt, base, off) -> wr_ t rt (Store.read_byte t.memory (addr t base off))
    | Lh (rt, base, off) ->
        wr_ t rt (Bits.sign_extend (Store.read_half t.memory (addr t base off)) ~width:16)
    | Lhu (rt, base, off) -> wr_ t rt (Store.read_half t.memory (addr t base off))
    | Sw (rt, base, off) -> Store.write_word t.memory (addr t base off) (Bits.to_u32 (rv_ t rt))
    | Sb (rt, base, off) -> Store.write_byte t.memory (addr t base off) (rv_ t rt)
    | Sh (rt, base, off) -> Store.write_half t.memory (addr t base off) (rv_ t rt)
    | Lwf (ft, base, off) -> wf_ t ft (Store.read_float t.memory (addr t base off))
    | Swf (ft, base, off) -> Store.write_float t.memory (addr t base off) (fv_ t ft)
    | Br (cond, rs, rt, off) ->
        if Semantics.branch_taken cond (rv_ t rs) (rv_ t rt) then new_pc := next + (4 * off)
    | J tgt -> new_pc := 4 * tgt
    | Jal tgt ->
        wr_ t Reg.ra next;
        new_pc := 4 * tgt
    | Jr rs -> new_pc := rv_ t rs
    | Jalr (rd, rs) ->
        let target = rv_ t rs in
        wr_ t rd next;
        new_pc := target
    | Nop -> ()
    | Halt -> t.halted <- true);
    t.count <- t.count + 1;
    t.pc <- !new_pc;
    if t.halted then Some Halted else None
  end

let run ?(limit = 100_000_000) t =
  let rec go () =
    if t.count >= limit then Insn_limit
    else if t.halted then Halted
    else match step t with None | Some Halted -> go () | Some stop -> stop
  in
  go ()

type arch_state = {
  final_pc : int;
  instructions : int;
  int_regs : int array;
  fp_regs : float array;
  memory : int array;
}

let arch_state t =
  {
    final_pc = t.pc;
    instructions = t.count;
    int_regs = Array.copy t.int_regs;
    fp_regs = Array.copy t.fp_regs;
    memory = Store.snapshot t.memory;
  }

let equal_arch a b =
  a.final_pc = b.final_pc && a.instructions = b.instructions
  && a.int_regs = b.int_regs
  && Array.for_all2 (fun (x : float) y -> Int32.bits_of_float x = Int32.bits_of_float y)
       a.fp_regs b.fp_regs
  && a.memory = b.memory

let pp_arch_diff ppf a b =
  let shown = ref 0 in
  let report fmt =
    incr shown;
    Format.fprintf ppf fmt
  in
  if a.final_pc <> b.final_pc then report "final pc: %#x vs %#x@." a.final_pc b.final_pc;
  if a.instructions <> b.instructions then
    report "instruction count: %d vs %d@." a.instructions b.instructions;
  for i = 0 to 31 do
    if !shown < 8 && a.int_regs.(i) <> b.int_regs.(i) then
      report "r%d: %d vs %d@." i a.int_regs.(i) b.int_regs.(i);
    if !shown < 8 && Int32.bits_of_float a.fp_regs.(i) <> Int32.bits_of_float b.fp_regs.(i)
    then report "f%d: %h vs %h@." i a.fp_regs.(i) b.fp_regs.(i)
  done;
  (* Both memories are ascending (address, word) pairs: one merge walk
     reports each differing address once, in address order. *)
  let ma = a.memory and mb = b.memory in
  let na = Array.length ma and nb = Array.length mb in
  let i = ref 0 and j = ref 0 in
  while !shown < 8 && (!i < na || !j < nb) do
    let ka = if !i < na then ma.(!i) else max_int and kb = if !j < nb then mb.(!j) else max_int in
    if ka = kb then begin
      if ma.(!i + 1) <> mb.(!j + 1) then
        report "mem[%#x]: %d vs %d@." ka ma.(!i + 1) mb.(!j + 1);
      i := !i + 2;
      j := !j + 2
    end
    else if ka < kb then begin
      report "mem[%#x]: left only (%d)@." ka ma.(!i + 1);
      i := !i + 2
    end
    else begin
      report "mem[%#x]: right only (%d)@." kb mb.(!j + 1);
      j := !j + 2
    end
  done;
  if !shown = 0 then Format.fprintf ppf "states are equal@."

let diff_string a b =
  Format.asprintf "%a" (fun ppf () -> pp_arch_diff ppf a b) ()

open Riq_util
open Riq_isa
open Riq_asm

type loop_info = { li_var : string; li_depth : int; li_body_insns : int; li_innermost : bool }

(* Where a scalar lives. *)
type home = Hreg of Reg.t | Hmem of string

type ctx = {
  b : Builder.t;
  homes : (string, home) Hashtbl.t;
  dims : (string, int list) Hashtbl.t;
  mutable int_temps : int list; (* free registers from r2..r15 *)
  mutable fp_temps : int list; (* free registers from f0..f15 *)
  mutable infos : loop_info list;
  mutable depth : int;
  procs : (string * Ir.stmt list) list;
}

let alloc_int ctx =
  match ctx.int_temps with
  | r :: rest ->
      ctx.int_temps <- rest;
      r
  | [] -> failwith "Codegen: integer temporary pool exhausted"

let alloc_fp ctx =
  match ctx.fp_temps with
  | r :: rest ->
      ctx.fp_temps <- rest;
      r
  | [] -> failwith "Codegen: float temporary pool exhausted"

let free_int ctx r = ctx.int_temps <- r :: ctx.int_temps
let free_fp ctx r = ctx.fp_temps <- r :: ctx.fp_temps

(* A value produced by expression evaluation: the register holding it and
   whether that register is a pool temporary the consumer must free. *)
type ival = { ir : Reg.t; iowned : bool }
type fval = { fr : Reg.t; fowned : bool }

let free_ival ctx v = if v.iowned then free_int ctx v.ir
let free_fval ctx v = if v.fowned then free_fp ctx v.fr

let home ctx name =
  match Hashtbl.find_opt ctx.homes name with
  | Some h -> h
  | None -> failwith (Printf.sprintf "Codegen: no home for %s" name)

let data_label name = "g_" ^ name

let read_int_scalar ctx name =
  match home ctx name with
  | Hreg r -> { ir = r; iowned = false }
  | Hmem label ->
      let r = alloc_int ctx in
      Builder.la ctx.b (Reg.r 1) label;
      Builder.emit ctx.b (Insn.Lw (r, Reg.r 1, 0));
      { ir = r; iowned = true }

let read_fp_scalar ctx name =
  match home ctx name with
  | Hreg r -> { fr = r; fowned = false }
  | Hmem label ->
      let r = alloc_fp ctx in
      Builder.la ctx.b (Reg.r 1) label;
      Builder.emit ctx.b (Insn.Lwf (r, Reg.r 1, 0));
      { fr = r; fowned = true }

let write_int_scalar ctx name (v : ival) =
  (match home ctx name with
  | Hreg r -> if r <> v.ir then Builder.emit ctx.b (Insn.Alu (Add, r, v.ir, Reg.zero))
  | Hmem label ->
      Builder.la ctx.b (Reg.r 1) label;
      Builder.emit ctx.b (Insn.Sw (v.ir, Reg.r 1, 0)));
  free_ival ctx v

let write_fp_scalar ctx name (v : fval) =
  (match home ctx name with
  | Hreg r -> if r <> v.fr then Builder.emit ctx.b (Insn.Fpu (Fmov, r, v.fr, Reg.f 0))
  | Hmem label ->
      Builder.la ctx.b (Reg.r 1) label;
      Builder.emit ctx.b (Insn.Swf (v.fr, Reg.r 1, 0)));
  free_fval ctx v

(* Constant folding over integer expressions: subscript arithmetic on
   constants disappears entirely. *)
let rec const_eval (e : Ir.iexpr) =
  match e with
  | Ir.Iconst n -> Some n
  | Ivar _ | Iload _ -> None
  | Iadd (a, b) -> (
      match (const_eval a, const_eval b) with
      | Some x, Some y -> Some (x + y)
      | _, _ -> None)
  | Isub (a, b) -> (
      match (const_eval a, const_eval b) with
      | Some x, Some y -> Some (x - y)
      | _, _ -> None)
  | Imul (a, b) -> (
      match (const_eval a, const_eval b) with
      | Some x, Some y -> Some (x * y)
      | _, _ -> None)

(* Result register for a binary operation: reuse an owned operand register
   when possible. *)
let result_reg ctx (a : ival) (b : ival) =
  if a.iowned then a.ir else if b.iowned then b.ir else alloc_int ctx

let release_others ctx d (a : ival) (b : ival) =
  if a.iowned && a.ir <> d then free_int ctx a.ir;
  if b.iowned && b.ir <> d then free_int ctx b.ir

let fresult_reg ctx (a : fval) (b : fval) =
  if a.fowned then a.fr else if b.fowned then b.fr else alloc_fp ctx

let frelease_others ctx d (a : fval) (b : fval) =
  if a.fowned && a.fr <> d then free_fp ctx a.fr;
  if b.fowned && b.fr <> d then free_fp ctx b.fr

let rec eval_i ctx (e : Ir.iexpr) : ival =
  match const_eval e with
  | Some n ->
      let d = alloc_int ctx in
      Builder.li ctx.b d n;
      { ir = d; iowned = true }
  | None -> (
      match e with
      | Ir.Iconst _ -> assert false (* handled by const_eval *)
      | Ivar v -> read_int_scalar ctx v
      | Iadd (a, b) -> add_sub ctx `Add a b
      | Isub (a, b) -> add_sub ctx `Sub a b
      | Imul (a, b) -> (
          match (const_eval a, const_eval b) with
          | Some c, None -> mul_const ctx (eval_i ctx b) c
          | None, Some c -> mul_const ctx (eval_i ctx a) c
          | None, None ->
              let va = eval_i ctx a in
              let vb = eval_i ctx b in
              let d = result_reg ctx va vb in
              Builder.emit ctx.b (Insn.Mul (d, va.ir, vb.ir));
              release_others ctx d va vb;
              { ir = d; iowned = true }
          | Some _, Some _ -> assert false)
      | Iload (arr, subs) ->
          let addr = eval_addr ctx arr subs in
          let d = if addr.iowned then addr.ir else alloc_int ctx in
          Builder.emit ctx.b (Insn.Lw (d, addr.ir, 0));
          if addr.iowned && d <> addr.ir then free_int ctx addr.ir;
          { ir = d; iowned = true })

and add_sub ctx op a b =
  (* x + c / x - c become one immediate instruction. *)
  let imm_form =
    match (op, const_eval a, const_eval b) with
    | `Add, Some c, None when Encode.imm_fits ~signed:true c -> Some (b, c)
    | `Add, None, Some c when Encode.imm_fits ~signed:true c -> Some (a, c)
    | `Sub, None, Some c when Encode.imm_fits ~signed:true (-c) -> Some (a, -c)
    | _ -> None
  in
  match imm_form with
  | Some (x, 0) -> eval_i ctx x
  | Some (x, c) ->
      let vx = eval_i ctx x in
      let d = if vx.iowned then vx.ir else alloc_int ctx in
      Builder.emit ctx.b (Insn.Alui (Add, d, vx.ir, c));
      { ir = d; iowned = true }
  | None ->
      let va = eval_i ctx a in
      let vb = eval_i ctx b in
      let d = result_reg ctx va vb in
      Builder.emit ctx.b (Insn.Alu ((match op with `Add -> Insn.Add | `Sub -> Insn.Sub), d, va.ir, vb.ir));
      release_others ctx d va vb;
      { ir = d; iowned = true }

and mul_const ctx (v : ival) c =
  if c = 0 then begin
    free_ival ctx v;
    let d = alloc_int ctx in
    Builder.emit ctx.b (Insn.Alui (Add, d, Reg.zero, 0));
    { ir = d; iowned = true }
  end
  else if c = 1 then
    if v.iowned then v
    else begin
      let d = alloc_int ctx in
      Builder.emit ctx.b (Insn.Alu (Add, d, v.ir, Reg.zero));
      { ir = d; iowned = true }
    end
  else begin
    let d = if v.iowned then v.ir else alloc_int ctx in
    if c > 1 && Bits.is_pow2 c then Builder.emit ctx.b (Insn.Shift (Sll, d, v.ir, Bits.log2 c))
    else begin
      let tc = alloc_int ctx in
      Builder.li ctx.b tc c;
      Builder.emit ctx.b (Insn.Mul (d, v.ir, tc));
      free_int ctx tc
    end;
    { ir = d; iowned = true }
  end

(* Byte address of an array element: base + 4 * row-major offset. *)
and eval_addr ctx arr subs =
  let dims =
    match Hashtbl.find_opt ctx.dims arr with
    | Some d -> d
    | None -> failwith ("Codegen: unknown array " ^ arr)
  in
  let rec flatten subs dims =
    match (subs, dims) with
    | [ s ], [ _ ] -> s
    | s :: rest_s, _ :: rest_d ->
        let stride = List.fold_left ( * ) 1 rest_d in
        Ir.Iadd (Ir.Imul (s, Ir.Iconst stride), flatten rest_s rest_d)
    | _, _ -> failwith "Codegen: subscript/dimension mismatch"
  in
  let voff = mul_const ctx (eval_i ctx (flatten subs dims)) 4 in
  Builder.la ctx.b (Reg.r 1) (data_label arr);
  let d = if voff.iowned then voff.ir else alloc_int ctx in
  Builder.emit ctx.b (Insn.Alu (Add, d, voff.ir, Reg.r 1));
  { ir = d; iowned = true }

let rec eval_f ctx (e : Ir.fexpr) : fval =
  match e with
  | Ir.Fconst c ->
      let d = alloc_fp ctx in
      Builder.lf ctx.b d c;
      { fr = d; fowned = true }
  | Fvar v -> read_fp_scalar ctx v
  | Fload (arr, subs) ->
      let addr = eval_addr ctx arr subs in
      let d = alloc_fp ctx in
      Builder.emit ctx.b (Insn.Lwf (d, addr.ir, 0));
      free_ival ctx addr;
      { fr = d; fowned = true }
  | Fadd (a, b) -> fbin ctx Insn.Fadd a b
  | Fsub (a, b) -> fbin ctx Insn.Fsub a b
  | Fmul (a, b) -> fbin ctx Insn.Fmul a b
  | Fdiv (a, b) -> fbin ctx Insn.Fdiv a b
  | Fneg a -> funary ctx Insn.Fneg a
  | Fabs a -> funary ctx Insn.Fabs a
  | Fsqrt a -> funary ctx Insn.Fsqrt a
  | Fofint a ->
      let v = eval_i ctx a in
      let d = alloc_fp ctx in
      Builder.emit ctx.b (Insn.Cvtsw (d, v.ir));
      free_ival ctx v;
      { fr = d; fowned = true }

and fbin ctx op a b =
  let va = eval_f ctx a in
  let vb = eval_f ctx b in
  let d = fresult_reg ctx va vb in
  Builder.emit ctx.b (Insn.Fpu (op, d, va.fr, vb.fr));
  frelease_others ctx d va vb;
  { fr = d; fowned = true }

and funary ctx op a =
  let va = eval_f ctx a in
  let d = if va.fowned then va.fr else alloc_fp ctx in
  Builder.emit ctx.b (Insn.Fpu (op, d, va.fr, Reg.f 0));
  { fr = d; fowned = true }

(* Evaluate a condition; branch to [target] when the condition is FALSE. *)
let branch_if_false ctx cond target =
  match cond with
  | Ir.Cilt (a, b) ->
      let va = eval_i ctx a in
      let vb = eval_i ctx b in
      let d = result_reg ctx va vb in
      Builder.emit ctx.b (Insn.Alu (Slt, d, va.ir, vb.ir));
      release_others ctx d va vb;
      Builder.br ctx.b Insn.Beq d Reg.zero target;
      free_int ctx d
  | Cieq (a, b) ->
      let va = eval_i ctx a in
      let vb = eval_i ctx b in
      Builder.br ctx.b Insn.Bne va.ir vb.ir target;
      free_ival ctx va;
      free_ival ctx vb
  | Clt (a, b) | Cle (a, b) | Ceq (a, b) ->
      let op =
        match cond with
        | Clt _ -> Insn.Flt
        | Cle _ -> Insn.Fle
        | Ceq _ -> Insn.Feq
        | Cilt _ | Cieq _ -> assert false
      in
      let va = eval_f ctx a in
      let vb = eval_f ctx b in
      let d = alloc_int ctx in
      Builder.emit ctx.b (Insn.Fcmp (op, d, va.fr, vb.fr));
      free_fval ctx va;
      free_fval ctx vb;
      Builder.br ctx.b Insn.Beq d Reg.zero target;
      free_int ctx d

let rec gen_stmt ctx (s : Ir.stmt) =
  match s with
  | Ir.Sfassign (v, e) -> write_fp_scalar ctx v (eval_f ctx e)
  | Siassign (v, e) -> write_int_scalar ctx v (eval_i ctx e)
  | Sfstore (arr, subs, e) ->
      let ve = eval_f ctx e in
      let addr = eval_addr ctx arr subs in
      Builder.emit ctx.b (Insn.Swf (ve.fr, addr.ir, 0));
      free_ival ctx addr;
      free_fval ctx ve
  | Sistore (arr, subs, e) ->
      let ve = eval_i ctx e in
      let addr = eval_addr ctx arr subs in
      Builder.emit ctx.b (Insn.Sw (ve.ir, addr.ir, 0));
      free_ival ctx addr;
      free_ival ctx ve
  | Sif (cond, then_s, else_s) ->
      let l_else = Builder.fresh_label ctx.b "else" in
      let l_end = Builder.fresh_label ctx.b "endif" in
      branch_if_false ctx cond (if else_s = [] then l_end else l_else);
      List.iter (gen_stmt ctx) then_s;
      if else_s <> [] then begin
        Builder.j ctx.b l_end;
        Builder.label ctx.b l_else;
        List.iter (gen_stmt ctx) else_s
      end;
      Builder.label ctx.b l_end
  | Scall name -> Builder.jal ctx.b ("proc_" ^ name)
  | Sfor { var; lo; hi; body } ->
      let idx =
        match home ctx var with
        | Hreg r -> r
        | Hmem _ -> failwith (Printf.sprintf "Codegen: loop index %s spilled to memory" var)
      in
      (* idx = lo. The bound is re-evaluated at every test rather than
         held in a temporary: procedure bodies share the temporary pool,
         so no temporary may be live across a statement boundary. *)
      let vlo = eval_i ctx lo in
      if vlo.ir <> idx then Builder.emit ctx.b (Insn.Alu (Add, idx, vlo.ir, Reg.zero));
      free_ival ctx vlo;
      let test_bound cond target =
        match const_eval hi with
        | Some c when Encode.imm_fits ~signed:true c ->
            let t = alloc_int ctx in
            Builder.emit ctx.b (Insn.Alui (Slt, t, idx, c));
            Builder.br ctx.b cond t Reg.zero target;
            free_int ctx t
        | Some _ | None ->
            let vhi = eval_i ctx hi in
            let t = if vhi.iowned then vhi.ir else alloc_int ctx in
            Builder.emit ctx.b (Insn.Alu (Slt, t, idx, vhi.ir));
            Builder.br ctx.b cond t Reg.zero target;
            free_int ctx t
      in
      let l_head = Builder.fresh_label ctx.b ("loop_" ^ var) in
      let l_end = Builder.fresh_label ctx.b ("endloop_" ^ var) in
      (* Zero-trip guard: skip when idx >= hi. *)
      test_bound Insn.Beq l_end;
      let head_addr = Builder.here ctx.b in
      Builder.label ctx.b l_head;
      ctx.depth <- ctx.depth + 1;
      let infos_before = List.length ctx.infos in
      List.iter (gen_stmt ctx) body;
      let innermost = List.length ctx.infos = infos_before in
      ctx.depth <- ctx.depth - 1;
      Builder.emit ctx.b (Insn.Alui (Add, idx, idx, 1));
      (* Back edge: loop while idx < hi. *)
      test_bound Insn.Bne l_head;
      let tail_addr = Builder.here ctx.b - 4 in
      ctx.infos <-
        {
          li_var = var;
          li_depth = ctx.depth;
          li_body_insns = ((tail_addr - head_addr) / 4) + 1;
          li_innermost = innermost;
        }
        :: ctx.infos;
      Builder.label ctx.b l_end

(* ---- program-level assembly ---- *)

let collect_loop_vars p =
  let rec of_stmt acc = function
    | Ir.Sfor { var; body; _ } -> List.fold_left of_stmt (var :: acc) body
    | Sif (_, a, b) -> List.fold_left of_stmt (List.fold_left of_stmt acc a) b
    | Sfassign _ | Siassign _ | Sfstore _ | Sistore _ | Scall _ -> acc
  in
  let acc = List.fold_left of_stmt [] p.Ir.main in
  let acc = List.fold_left (fun acc (_, body) -> List.fold_left of_stmt acc body) acc p.Ir.procs in
  List.sort_uniq compare acc

let index_pattern_float k = 1.0 +. (float_of_int (k mod 13) *. 0.25)
let index_pattern_int k = ((k * 13) mod 64) - 17

let compile_info p =
  (match Ir.validate p with
  | Ok () -> ()
  | Error m -> invalid_arg ("Codegen.compile: " ^ m));
  let b = Builder.create () in
  let homes = Hashtbl.create 32 in
  let dims = Hashtbl.create 16 in
  (* Scalar allocation: loop indices first (they must be registers), then
     the declared scalars; overflow spills to memory words. *)
  let int_homes = List.map (fun n -> Reg.r n) [ 16; 17; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27; 28 ] in
  let fp_homes = List.map (fun n -> Reg.f n) [ 16; 17; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27; 28; 29; 30; 31 ] in
  let loop_vars = collect_loop_vars p in
  let assign_homes names pool is_float =
    let pool = ref pool in
    List.iter
      (fun name ->
        match !pool with
        | r :: rest ->
            Hashtbl.replace homes name (Hreg r);
            pool := rest
        | [] ->
            let label = "sc_" ^ name in
            (if is_float then Builder.data_float b label [| 0.0 |]
             else Builder.data_word b label [| 0 |]);
            Hashtbl.replace homes name (Hmem label))
      names;
    !pool
  in
  let remaining = assign_homes loop_vars int_homes false in
  let scalars = List.filter (fun v -> not (List.mem v loop_vars)) p.Ir.int_scalars in
  ignore (assign_homes scalars remaining false);
  ignore (assign_homes p.Ir.float_scalars fp_homes true);
  (* Arrays: data blocks with deterministic initial contents. *)
  List.iter
    (fun (a : Ir.array_decl) ->
      let n = List.fold_left ( * ) 1 a.a_dims in
      Hashtbl.replace dims a.a_name a.a_dims;
      match (a.a_float, a.a_init) with
      | true, `Zero -> Builder.data_float b (data_label a.a_name) (Array.make n 0.0)
      | true, `Index_pattern ->
          Builder.data_float b (data_label a.a_name) (Array.init n index_pattern_float)
      | false, `Zero -> Builder.data_word b (data_label a.a_name) (Array.make n 0)
      | false, `Index_pattern ->
          Builder.data_word b (data_label a.a_name) (Array.init n index_pattern_int))
    p.Ir.arrays;
  let ctx =
    {
      b;
      homes;
      dims;
      int_temps = [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ];
      fp_temps = [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ] |> List.map (fun n -> Reg.f n);
      infos = [];
      depth = 0;
      procs = p.Ir.procs;
    }
  in
  Builder.label b "main";
  List.iter (gen_stmt ctx) p.Ir.main;
  Builder.emit b Insn.Halt;
  List.iter
    (fun (name, body) ->
      Builder.label b ("proc_" ^ name);
      List.iter (gen_stmt ctx) body;
      Builder.emit b (Insn.Jr Reg.ra))
    p.Ir.procs;
  (Builder.finish ~entry_label:"main" b, List.rev ctx.infos)

let compile p = fst (compile_info p)

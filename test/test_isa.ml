open Riq_isa

(* ---- Reg ---- *)

let test_reg_basics () =
  Alcotest.(check string) "r0" "r0" (Reg.to_string Reg.zero);
  Alcotest.(check string) "f5" "f5" (Reg.to_string (Reg.f 5));
  Alcotest.(check bool) "fp" true (Reg.is_fp (Reg.f 0));
  Alcotest.(check bool) "int" false (Reg.is_fp (Reg.r 31));
  Alcotest.(check int) "index" 7 (Reg.index (Reg.f 7));
  Alcotest.(check (option int)) "parse r12" (Some 12) (Reg.of_string "r12");
  Alcotest.(check (option int)) "parse f31" (Some (32 + 31)) (Reg.of_string "f31");
  Alcotest.(check (option int)) "reject r32" None (Reg.of_string "r32");
  Alcotest.(check (option int)) "reject junk" None (Reg.of_string "x1");
  Alcotest.check_raises "out of range" (Invalid_argument "Reg.r") (fun () -> ignore (Reg.r 32))

(* ---- canonical instruction generator for the round-trip property ---- *)

let gen_insn =
  let open QCheck.Gen in
  let reg = map Reg.r (int_bound 31) in
  let freg = map Reg.f (int_bound 31) in
  let imm_s = int_range (-32768) 32767 in
  let imm_u = int_bound 65535 in
  let shamt = int_bound 31 in
  let target = int_bound ((1 lsl 26) - 1) in
  let alu_op = oneofl Insn.[ Add; Sub; And; Or; Xor; Nor; Slt; Sltu ] in
  let alui_op = oneofl Insn.[ Add; And; Or; Xor; Slt; Sltu ] in
  let shift_op = oneofl Insn.[ Sll; Srl; Sra ] in
  let fpu_bin = oneofl Insn.[ Fadd; Fsub; Fmul; Fdiv ] in
  let fpu_un = oneofl Insn.[ Fsqrt; Fneg; Fabs; Fmov ] in
  let fcmp_op = oneofl Insn.[ Feq; Flt; Fle ] in
  let cond2 = oneofl Insn.[ Beq; Bne ] in
  let cond1 = oneofl Insn.[ Blez; Bgtz; Bltz; Bgez ] in
  let alui_imm op =
    match op with
    | Insn.Add | Slt | Sltu -> imm_s
    | And | Or | Xor -> imm_u
    | Sub | Nor -> assert false
  in
  oneof
    [
      map3 (fun op (a, b) c -> Insn.Alu (op, a, b, c)) alu_op (pair reg reg) reg;
      alui_op >>= (fun op ->
        map3 (fun rt rs imm -> Insn.Alui (op, rt, rs, imm)) reg reg (alui_imm op));
      map3 (fun (op, rd) rt sh -> Insn.Shift (op, rd, rt, sh)) (pair shift_op reg) reg shamt;
      map3 (fun (op, rd) rt rs -> Insn.Shiftv (op, rd, rt, rs)) (pair shift_op reg) reg reg;
      map2 (fun rt imm -> Insn.Lui (rt, imm)) reg imm_u;
      map3 (fun rd rs rt -> Insn.Mul (rd, rs, rt)) reg reg reg;
      map3 (fun rd rs rt -> Insn.Div (rd, rs, rt)) reg reg reg;
      map3 (fun (op, fd) fs ft -> Insn.Fpu (op, fd, fs, ft)) (pair fpu_bin freg) freg freg;
      map2 (fun (op, fd) fs -> Insn.Fpu (op, fd, fs, Reg.f 0)) (pair fpu_un freg) freg;
      map3 (fun (op, rd) fs ft -> Insn.Fcmp (op, rd, fs, ft)) (pair fcmp_op reg) freg freg;
      map2 (fun fd rs -> Insn.Cvtsw (fd, rs)) freg reg;
      map2 (fun rd fs -> Insn.Cvtws (rd, fs)) reg freg;
      map3 (fun rt base off -> Insn.Lw (rt, base, off)) reg reg imm_s;
      map3 (fun rt base off -> Insn.Lb (rt, base, off)) reg reg imm_s;
      map3 (fun rt base off -> Insn.Lbu (rt, base, off)) reg reg imm_s;
      map3 (fun rt base off -> Insn.Lh (rt, base, off)) reg reg imm_s;
      map3 (fun rt base off -> Insn.Lhu (rt, base, off)) reg reg imm_s;
      map3 (fun rt base off -> Insn.Sw (rt, base, off)) reg reg imm_s;
      map3 (fun rt base off -> Insn.Sb (rt, base, off)) reg reg imm_s;
      map3 (fun rt base off -> Insn.Sh (rt, base, off)) reg reg imm_s;
      map3 (fun ft base off -> Insn.Lwf (ft, base, off)) freg reg imm_s;
      map3 (fun ft base off -> Insn.Swf (ft, base, off)) freg reg imm_s;
      map3 (fun (c, rs) rt off -> Insn.Br (c, rs, rt, off)) (pair cond2 reg) reg imm_s;
      map2 (fun (c, rs) off -> Insn.Br (c, rs, Reg.zero, off)) (pair cond1 reg) imm_s;
      map (fun tgt -> Insn.J tgt) target;
      map (fun tgt -> Insn.Jal tgt) target;
      map (fun rs -> Insn.Jr rs) reg;
      map2 (fun rd rs -> Insn.Jalr (rd, rs)) reg reg;
      return Insn.Nop;
      return Insn.Halt;
    ]

let arbitrary_insn = QCheck.make ~print:Insn.to_string gen_insn

let prop_encode_decode =
  QCheck.Test.make ~name:"encode/decode round-trip" ~count:2000 arbitrary_insn (fun insn ->
      match Encode.decode (Encode.encode insn) with
      | Ok insn' -> Insn.equal insn insn'
      | Error _ -> false)

let prop_encode_32bit =
  QCheck.Test.make ~name:"encodings fit 32 bits" ~count:2000 arbitrary_insn (fun insn ->
      let w = Encode.encode insn in
      w >= 0 && w <= 0xFFFFFFFF)

let prop_dest_not_source_of_store =
  QCheck.Test.make ~name:"stores and branches have no destination" ~count:500 arbitrary_insn
    (fun insn ->
      match Insn.kind insn with
      | Insn.K_store | K_branch | K_jump -> Insn.dest insn = None
      | _ -> true)

(* ---- unit tests ---- *)

let test_encode_specific () =
  (* add r1, r2, r3 = op 0, funct 0 *)
  let w = Encode.encode (Insn.Alu (Add, Reg.r 1, Reg.r 2, Reg.r 3)) in
  Alcotest.(check int) "add encoding" ((2 lsl 21) lor (3 lsl 16) lor (1 lsl 11)) w;
  (* negative immediate round-trips through the 16-bit field *)
  let w = Encode.encode (Insn.Alui (Add, Reg.r 4, Reg.r 5, -1)) in
  Alcotest.(check int) "imm field" 0xFFFF (w land 0xFFFF)

let test_encode_rejects () =
  Alcotest.(check bool) "imm too large" true
    (try
       ignore (Encode.encode (Insn.Alui (Add, Reg.r 1, Reg.r 1, 40000)));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "no subi" true
    (try
       ignore (Encode.encode (Insn.Alui (Sub, Reg.r 1, Reg.r 1, 1)));
       false
     with Invalid_argument _ -> true)

let test_decode_rejects () =
  (match Encode.decode 0xFFFFFFFF with
  | Error _ -> ()
  | Ok insn -> Alcotest.failf "decoded garbage to %s" (Insn.to_string insn));
  match Encode.decode (63 lsl 26) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded unknown opcode"

let test_ctrl_target () =
  let pc = 0x1000 in
  Alcotest.(check (option int)) "branch back" (Some 0x0FF4)
    (Insn.ctrl_target (Insn.Br (Beq, Reg.r 1, Reg.r 2, -4)) ~pc);
  Alcotest.(check (option int)) "branch fwd" (Some 0x100C)
    (Insn.ctrl_target (Insn.Br (Bne, Reg.r 1, Reg.r 2, 2)) ~pc);
  Alcotest.(check (option int)) "jump" (Some 0x2000) (Insn.ctrl_target (Insn.J 0x800) ~pc);
  Alcotest.(check (option int)) "indirect" None (Insn.ctrl_target (Insn.Jr (Reg.r 31)) ~pc)

let test_kinds () =
  Alcotest.(check bool) "jr ra is return" true (Insn.kind (Insn.Jr Reg.ra) = Insn.K_return);
  Alcotest.(check bool) "jr r5 is ijump" true (Insn.kind (Insn.Jr (Reg.r 5)) = Insn.K_ijump);
  Alcotest.(check bool) "jal is call" true (Insn.kind (Insn.Jal 12) = Insn.K_call);
  Alcotest.(check bool) "jal writes ra" true (Insn.dest (Insn.Jal 12) = Some Reg.ra);
  Alcotest.(check bool) "halt kind" true (Insn.kind Insn.Halt = Insn.K_halt)

let test_sources () =
  Alcotest.(check (list int)) "r0 excluded" []
    (Insn.sources (Insn.Alu (Add, Reg.r 1, Reg.zero, Reg.zero)));
  Alcotest.(check (list int)) "store sources"
    [ Reg.r 3; Reg.r 4 ]
    (Insn.sources (Insn.Sw (Reg.r 3, Reg.r 4, 0)));
  Alcotest.(check (list int)) "fp store sources"
    [ Reg.f 2; Reg.r 4 ]
    (Insn.sources (Insn.Swf (Reg.f 2, Reg.r 4, 0)))

let test_access_bytes () =
  Alcotest.(check int) "lw" 4 (Insn.access_bytes (Insn.Lw (1, 2, 0)));
  Alcotest.(check int) "lb" 1 (Insn.access_bytes (Insn.Lb (1, 2, 0)));
  Alcotest.(check int) "sh" 2 (Insn.access_bytes (Insn.Sh (1, 2, 0)));
  Alcotest.(check bool) "non-memory raises" true
    (try
       ignore (Insn.access_bytes Insn.Nop);
       false
     with Invalid_argument _ -> true)

let test_latency_classes () =
  Alcotest.(check bool) "div slow" true (Insn.latency (Insn.Div (1, 2, 3)) > 10);
  Alcotest.(check bool) "div unpipelined" false (Insn.pipelined (Insn.Div (1, 2, 3)));
  Alcotest.(check bool) "alu fast" true (Insn.latency (Insn.Alu (Add, 1, 2, 3)) = 1);
  Alcotest.(check bool) "fmul unit" true
    (Insn.fu (Insn.Fpu (Fmul, Reg.f 1, Reg.f 2, Reg.f 3)) = Insn.FU_fpmult);
  Alcotest.(check bool) "fadd unit" true
    (Insn.fu (Insn.Fpu (Fadd, Reg.f 1, Reg.f 2, Reg.f 3)) = Insn.FU_fpalu)

let suites =
  [
    ( "isa",
      [
        Alcotest.test_case "registers" `Quick test_reg_basics;
        Alcotest.test_case "specific encodings" `Quick test_encode_specific;
        Alcotest.test_case "encode rejects bad operands" `Quick test_encode_rejects;
        Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects;
        Alcotest.test_case "control targets" `Quick test_ctrl_target;
        Alcotest.test_case "instruction kinds" `Quick test_kinds;
        Alcotest.test_case "source operands" `Quick test_sources;
        Alcotest.test_case "latencies and units" `Quick test_latency_classes;
        Alcotest.test_case "access widths" `Quick test_access_bytes;
        QCheck_alcotest.to_alcotest prop_encode_decode;
        QCheck_alcotest.to_alcotest prop_encode_32bit;
        QCheck_alcotest.to_alcotest prop_dest_not_source_of_store;
      ] );
  ]

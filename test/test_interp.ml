open Riq_isa
open Riq_asm
open Riq_interp

let checkf = Alcotest.(check (float 0.))

(* ---- Semantics ---- *)

let test_alu () =
  Alcotest.(check int) "add wrap" (-2147483648) (Semantics.alu Insn.Add 0x7FFFFFFF 1);
  Alcotest.(check int) "sub" (-1) (Semantics.alu Insn.Sub 1 2);
  Alcotest.(check int) "and" 0b1000 (Semantics.alu Insn.And 0b1100 0b1010);
  Alcotest.(check int) "or" 0b1110 (Semantics.alu Insn.Or 0b1100 0b1010);
  Alcotest.(check int) "xor" 0b0110 (Semantics.alu Insn.Xor 0b1100 0b1010);
  Alcotest.(check int) "nor" (-15) (Semantics.alu Insn.Nor 0b1100 0b1010);
  Alcotest.(check int) "slt signed" 1 (Semantics.alu Insn.Slt (-1) 0);
  Alcotest.(check int) "sltu unsigned" 0 (Semantics.alu Insn.Sltu (-1) 0);
  Alcotest.(check int) "sltu small" 1 (Semantics.alu Insn.Sltu 0 (-1))

let test_shift () =
  Alcotest.(check int) "sll" 16 (Semantics.shift Insn.Sll 1 4);
  Alcotest.(check int) "sll wrap" 0 (Semantics.shift Insn.Sll 0x80000000 1);
  Alcotest.(check int) "srl of negative" 0x7FFFFFFF (Semantics.shift Insn.Srl (-1) 1);
  Alcotest.(check int) "sra of negative" (-1) (Semantics.shift Insn.Sra (-1) 4);
  Alcotest.(check int) "amount masked" 2 (Semantics.shift Insn.Sll 1 33)

let test_muldiv () =
  Alcotest.(check int) "mul" 12 (Semantics.mul 3 4);
  Alcotest.(check int) "mul wrap" 0 (Semantics.mul 0x10000 0x10000);
  Alcotest.(check int) "div" (-2) (Semantics.div 7 (-3));
  Alcotest.(check int) "div truncates toward zero" (-2) (Semantics.div (-7) 3);
  Alcotest.(check int) "div by zero" 0 (Semantics.div 5 0)

let test_fpu_single () =
  (* 0.1 is not representable; single and double rounding differ. *)
  let r = Semantics.fpu Insn.Fadd 0.1 0.2 in
  checkf "single precision result"
    (Int32.float_of_bits (Int32.bits_of_float (Semantics.to_single 0.1 +. Semantics.to_single 0.2)))
    r;
  checkf "fabs" 2.5 (Semantics.fpu Insn.Fabs (-2.5) 0.);
  checkf "fneg" (-3.) (Semantics.fpu Insn.Fneg 3. 0.);
  checkf "fsqrt" 3. (Semantics.fpu Insn.Fsqrt 9. 0.);
  Alcotest.(check int) "flt" 1 (Semantics.fcmp Insn.Flt 1. 2.);
  Alcotest.(check int) "fle eq" 1 (Semantics.fcmp Insn.Fle 2. 2.);
  Alcotest.(check int) "feq" 0 (Semantics.fcmp Insn.Feq 1. 2.)

let test_cvt () =
  checkf "int to float" 42. (Semantics.cvt_s_w 42);
  Alcotest.(check int) "float to int truncates" 3 (Semantics.cvt_w_s 3.9);
  Alcotest.(check int) "negative truncates" (-3) (Semantics.cvt_w_s (-3.9));
  Alcotest.(check int) "nan" 0 (Semantics.cvt_w_s Float.nan);
  Alcotest.(check int) "saturate high" 0x7FFFFFFF (Semantics.cvt_w_s 1e20);
  Alcotest.(check int) "saturate low" (-2147483648) (Semantics.cvt_w_s (-1e20))

let test_branch_conds () =
  let t = Alcotest.(check bool) in
  t "beq" true (Semantics.branch_taken Insn.Beq 3 3);
  t "bne" false (Semantics.branch_taken Insn.Bne 3 3);
  t "blez zero" true (Semantics.branch_taken Insn.Blez 0 99);
  t "bgtz" false (Semantics.branch_taken Insn.Bgtz 0 0);
  t "bltz" true (Semantics.branch_taken Insn.Bltz (-1) 0);
  t "bgez zero" true (Semantics.branch_taken Insn.Bgez 0 0)

(* ---- Machine ---- *)

let run src =
  let p = Parse.program_exn src in
  let m = Machine.create p in
  match Machine.run ~limit:1_000_000 m with
  | Machine.Halted -> m
  | Machine.Insn_limit -> Alcotest.fail "instruction limit"
  | Machine.Bad_pc pc -> Alcotest.failf "bad pc %#x" pc

let test_machine_arith_loop () =
  let m = run {|
    li r2, 0
    li r3, 1
loop:
    add r2, r2, r3
    addi r3, r3, 1
    slti r4, r3, 101
    bne r4, r0, loop
    halt
|} in
  Alcotest.(check int) "sum 1..100" 5050 (Machine.reg m (Reg.r 2))

let test_machine_memory () =
  let m = run {|
.space buf 4
    la  r2, buf
    li  r3, -123
    sw  r3, 8(r2)
    lw  r4, 8(r2)
    halt
|} in
  Alcotest.(check int) "store/load" (-123) (Machine.reg m (Reg.r 4))

let test_machine_call () =
  let m = run {|
    li  r2, 5
    jal double
    jal double
    halt
double:
    add r2, r2, r2
    jr  r31
|} in
  Alcotest.(check int) "nested calls" 20 (Machine.reg m (Reg.r 2))

let test_machine_fp () =
  let m = run {|
.float xs 1.5 2.5
    la  r2, xs
    l.s f1, 0(r2)
    l.s f2, 4(r2)
    fmul f3, f1, f2
    fdiv f4, f3, f1
    halt
|} in
  checkf "fmul" 3.75 (Machine.freg m (Reg.f 3));
  checkf "fdiv" 2.5 (Machine.freg m (Reg.f 4))

let test_machine_r0 () =
  let m = run {|
    addi r0, r0, 7
    add  r2, r0, r0
    halt
|} in
  Alcotest.(check int) "r0 stays zero" 0 (Machine.reg m (Reg.r 2))

let test_machine_subword () =
  let m = run {|
.space buf 4
    la  r2, buf
    li  r3, -1
    sb  r3, 0(r2)        # bytes: FF
    li  r4, 0x1234
    sh  r4, 2(r2)
    lb  r5, 0(r2)        # sign-extended: -1
    lbu r6, 0(r2)        # zero-extended: 255
    lh  r7, 2(r2)        # 0x1234
    lhu r8, 2(r2)
    lw  r9, 0(r2)
    halt
|} in
  Alcotest.(check int) "lb" (-1) (Machine.reg m (Reg.r 5));
  Alcotest.(check int) "lbu" 255 (Machine.reg m (Reg.r 6));
  Alcotest.(check int) "lh" 0x1234 (Machine.reg m (Reg.r 7));
  Alcotest.(check int) "lhu" 0x1234 (Machine.reg m (Reg.r 8));
  Alcotest.(check int) "merged word" 0x123400FF (Machine.reg m (Reg.r 9))

let test_machine_subword_signs () =
  let m = run {|
.space buf 4
    la  r2, buf
    li  r3, 0x8081
    sh  r3, 0(r2)
    lh  r4, 0(r2)        # sign-extended negative
    lhu r5, 0(r2)
    lb  r6, 1(r2)        # 0x80 -> -128
    halt
|} in
  Alcotest.(check int) "lh negative" (-32639) (Machine.reg m (Reg.r 4));
  Alcotest.(check int) "lhu" 0x8081 (Machine.reg m (Reg.r 5));
  Alcotest.(check int) "lb negative" (-128) (Machine.reg m (Reg.r 6))

let test_machine_bad_pc () =
  let p = Parse.program_exn "j 0\nhalt\n" in
  let m = Machine.create p in
  match Machine.run m with
  | Machine.Bad_pc 0 -> ()
  | Machine.Bad_pc pc -> Alcotest.failf "wrong pc %#x" pc
  | Machine.Halted | Machine.Insn_limit -> Alcotest.fail "expected bad pc"

let test_machine_insn_limit () =
  let p = Parse.program_exn "loop:\nj loop\nhalt\n" in
  let m = Machine.create p in
  match Machine.run ~limit:100 m with
  | Machine.Insn_limit -> Alcotest.(check int) "count" 100 (Machine.insn_count m)
  | Machine.Halted | Machine.Bad_pc _ -> Alcotest.fail "expected limit"

let test_arch_state_equality () =
  let m1 = run "li r2, 7\nhalt\n" and m2 = run "li r2, 7\nhalt\n" in
  Alcotest.(check bool) "equal states" true
    (Machine.equal_arch (Machine.arch_state m1) (Machine.arch_state m2));
  let m3 = run "li r2, 8\nhalt\n" in
  Alcotest.(check bool) "unequal states" false
    (Machine.equal_arch (Machine.arch_state m1) (Machine.arch_state m3))

(* Two runs of one program text with different data words: only memory
   differs. The diff names each address once, ascending, left value
   first, and stops after 8 lines. *)
let test_arch_diff_memory () =
  let state words =
    Machine.arch_state (run (Printf.sprintf "halt\n.word d %s\n" words))
  in
  Alcotest.(check string) "each address once, ascending"
    "mem[0x100000]: 1 vs 2\n\
     mem[0x100008]: left only (7)\n\
     mem[0x10000c]: right only (9)\n"
    (Machine.diff_string (state "1 5 7 0") (state "2 5 0 9"));
  Alcotest.(check string) "at most 8 lines"
    (String.concat ""
       (List.init 8 (fun i -> Printf.sprintf "mem[%#x]: %d vs %d\n" (0x100000 + (4 * i)) (i + 1) (i + 11))))
    (Machine.diff_string (state "1 2 3 4 5 6 7 8 9 10") (state "11 12 13 14 15 16 17 18 19 20"))

(* The reference state core-large checks every btrix cell against holds
   memory as flat (address, word) pairs: two heap words per non-zero
   word plus the array header. *)
let test_btrix_snapshot_footprint () =
  let m = Machine.create (Riq_workloads.Workloads.program (Riq_workloads.Workloads.find "btrix")) in
  (match Machine.run m with
  | Machine.Halted -> ()
  | Machine.Insn_limit | Machine.Bad_pc _ -> Alcotest.fail "btrix did not halt");
  let mem = (Machine.arch_state m).Machine.memory in
  let words = Array.length mem / 2 in
  Alcotest.(check int) "non-zero words" 72_971 words;
  for k = 0 to words - 1 do
    let addr = mem.(2 * k) and v = mem.((2 * k) + 1) in
    if v = 0 || Riq_mem.Store.read_word (Machine.mem m) addr <> v
       || (k > 0 && addr <= mem.((2 * k) - 2))
    then Alcotest.failf "pair %d (%#x, %d) is not the store's next non-zero word" k addr v
  done;
  let reachable = Obj.reachable_words (Obj.repr mem) in
  if reachable > (2 * words) + 1 then
    Alcotest.failf "%d reachable words for %d non-zero words" reachable words

let suites =
  [
    ( "interp",
      [
        Alcotest.test_case "alu semantics" `Quick test_alu;
        Alcotest.test_case "shift semantics" `Quick test_shift;
        Alcotest.test_case "mul/div semantics" `Quick test_muldiv;
        Alcotest.test_case "fp single precision" `Quick test_fpu_single;
        Alcotest.test_case "conversions" `Quick test_cvt;
        Alcotest.test_case "branch conditions" `Quick test_branch_conds;
        Alcotest.test_case "machine arithmetic loop" `Quick test_machine_arith_loop;
        Alcotest.test_case "machine memory" `Quick test_machine_memory;
        Alcotest.test_case "machine calls" `Quick test_machine_call;
        Alcotest.test_case "machine fp" `Quick test_machine_fp;
        Alcotest.test_case "machine r0 hardwired" `Quick test_machine_r0;
        Alcotest.test_case "machine sub-word memory" `Quick test_machine_subword;
        Alcotest.test_case "machine sub-word signs" `Quick test_machine_subword_signs;
        Alcotest.test_case "machine bad pc" `Quick test_machine_bad_pc;
        Alcotest.test_case "machine instruction limit" `Quick test_machine_insn_limit;
        Alcotest.test_case "arch state equality" `Quick test_arch_state_equality;
        Alcotest.test_case "arch diff of memory" `Quick test_arch_diff_memory;
        Alcotest.test_case "btrix snapshot footprint" `Quick test_btrix_snapshot_footprint;
      ] );
  ]

open Riq_asm
open Riq_ooo
open Riq_workloads
open Riq_fuzz

(* The fixed inputs that [core.digests] pins: every kernel under the
   baseline and reuse configurations, the seed-42 fuzz corpus under both,
   every kernel at reuse IQ 16 (queue-full revokes, LSQ-full stalls) and
   a long-latency pointer chase that wraps the writeback event wheel. *)

(* A dependency chain of long-latency loads: every iteration's address
   depends on the previous load's (zero) value, each access lands on a
   fresh L1 line, and every other line misses the L2 out to DRAM. With
   per-load latencies around 8..170 cycles and nothing else in flight,
   writeback events constantly land on wheel slots numerically below the
   current one (cycle land 255 wraps). *)
let chase_src =
  let zeros = String.concat " " (List.init 1024 (fun _ -> "0")) in
  Printf.sprintf {|
    la r2, buf
    li r6, 120
chase:
    lw r5, 0(r2)
    add r2, r2, r5
    addi r2, r2, 32
    addi r6, r6, -1
    bgtz r6, chase
    halt
.word buf %s
|} zeros

let corpus_seed = 42
let corpus_size = 50

let corpus () =
  List.init corpus_size (fun i ->
      let prog = Gen.program ~seed:(Gen.derive_seed corpus_seed i) () in
      match Prog.to_program prog with
      | Ok p -> (Printf.sprintf "seed-%d" prog.Prog.seed, p)
      | Error msg -> failwith (Printf.sprintf "corpus seed %d: %s" prog.Prog.seed msg))

(* [(cell name, configuration, program)], in file order. *)
let all () =
  let kernels = List.map (fun w -> (w.Workloads.name, Workloads.program w)) Workloads.all in
  let configs = [ ("baseline", Config.baseline); ("reuse", Config.reuse) ] in
  let cross programs configs =
    List.concat_map
      (fun (pname, p) -> List.map (fun (cname, cfg) -> (pname ^ "/" ^ cname, cfg, p)) configs)
      programs
  in
  cross kernels configs @ cross (corpus ()) configs
  @ cross kernels [ ("iq16", Config.with_iq_size Config.reuse 16) ]
  @ [ ("chase/reuse", Config.reuse, Parse.program_exn chase_src) ]

(* Every input a workload runs, derived from its --seed alone. The seed
   only reorders the paper cells (core-*, sweep-cold-j2) and the fuzz
   pool (serve-mixed); it never changes which cells run, so golden
   digests apply to every seed. *)

open Riq_util
open Riq_asm
open Riq_ooo
open Riq_workloads

let sizes = [ 32; 64; 128; 256 ]

type cell = { kernel : string; config : string; cfg : Config.t; key : string }

let config_of config iq =
  Config.with_iq_size (if config = "reuse" then Config.reuse else Config.baseline) iq

let make_cell kernel config iq =
  { kernel; config; cfg = config_of config iq; key = Golden.key ~kernel ~config ~iq }

let grid kernels iqs =
  List.concat_map
    (fun k -> List.concat_map (fun iq -> List.map (fun c -> make_cell k c iq) Spec.configs) iqs)
    kernels

(* Table 2's tight-loop codes: dominant loops fit a 32-entry queue. *)
let tight_kernels = [ "aps"; "tsf"; "wss" ]

(* Large loop bodies, captured only by a 256-entry queue. *)
let large_kernels = [ "adi"; "btrix"; "eflux"; "tomcat"; "vpenta" ]

let all_kernels () = List.map (fun w -> w.Workloads.name) Workloads.all

(* The paper grid in Sweep.jobs's canonical order: benchmark-major, then
   size, baseline before reuse. *)
let paper_cells () = grid (all_kernels ()) sizes

(* The sweep batch: every kernel and config at the two extreme queue
   sizes, half the paper grid, so a run fits several passes. *)
let sweep_sizes = [ 32; 256 ]

let permute seed a =
  let a = Array.copy a in
  Rng.shuffle (Rng.create seed) a;
  a

let core_grid workload =
  Array.of_list
    (match workload with
    | "core-tight" -> grid tight_kernels sizes
    | "core-large" -> grid large_kernels [ 64; 256 ]
    | w -> invalid_arg ("core_grid: " ^ w))

let core_cells workload ~seed = permute seed (core_grid workload)

(* The sweep batch's 32 jobs (check on) paired with their cells,
   seed-permuted. *)
let sweep_jobs ~seed =
  let jobs = Riq_harness.Sweep.jobs ~sizes:sweep_sizes ~check:true () in
  let cells = Array.of_list (grid (all_kernels ()) sweep_sizes) in
  assert (Array.length jobs = Array.length cells);
  permute seed (Array.map2 (fun c j -> (c, j)) cells jobs)

let fresh_per_pass = 8

(* serve-mixed's fresh programs come from a fixed pool of generated
   programs, less the ones golden.json excludes. 1024 programs last 128
   passes before one repeats (and would be a store hit). *)
let fuzz_pool_size = 1024
let fuzz_pool_seed i = Riq_fuzz.Gen.derive_seed 0 i

let fuzz_program s =
  match Riq_fuzz.Prog.to_program (Riq_fuzz.Gen.program ~seed:s ()) with
  | Ok p -> p
  | Error e -> failwith (Printf.sprintf "fuzz program %d does not assemble: %s" s e)

(* serve-mixed pass [pass]: programs the daemon's store has not seen in
   this run, so they execute. The seed orders the pool. *)
let fuzz_programs ~excluded ~seed ~pass =
  let pool = List.filter (fun i -> not (List.mem i excluded)) (List.init fuzz_pool_size Fun.id) in
  let order = permute seed (Array.of_list pool) in
  List.init fresh_per_pass (fun k ->
      let s = fuzz_pool_seed order.(((fresh_per_pass * pass) + k) mod Array.length order) in
      (s, fuzz_program s))

let fuzz_jobs (programs : (int * Program.t) list) =
  List.concat_map
    (fun (s, p) ->
      List.map
        (fun config ->
          let job = Riq_exp.Job.make ~check:true (config_of config 64) p in
          (Printf.sprintf "fuzz-%d/%s" s config, job))
        Spec.configs)
    programs

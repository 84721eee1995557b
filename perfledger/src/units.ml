(* Public functions timed in isolation (the unit.* metrics): the same
   operations as the Bechamel micro-benchmarks in bench/main.ml, reported
   per call so they read as a cost per decoded word, cache access, etc. *)

open Riq_isa
open Riq_mem
open Riq_branch
open Riq_ooo

(* Nanoseconds per call of [f], which performs [calls] calls: the batch
   size doubles until a batch takes 20 ms, then the median of 7 batches. *)
let ns_per_call ~calls f =
  let batch n =
    let t0 = Measure.wall () in
    for _ = 1 to n do
      f ()
    done;
    Measure.wall () -. t0
  in
  let rec calibrate n = if batch n >= 0.02 || n >= 1 lsl 20 then n else calibrate (2 * n) in
  let n = calibrate 1 in
  let samples = Array.init 7 (fun _ -> batch n) in
  Measure.median samples /. float_of_int (n * calls) *. 1e9

let isa_decode () =
  let words = Array.init 256 (fun i -> Encode.encode (Insn.Alui (Add, 2, 3, i))) in
  ns_per_call ~calls:256 (fun () -> Array.iter (fun w -> ignore (Encode.decode_exn w)) words)

let mem_cache_access () =
  let c = Cache.create (Cache.config ~name:"b" ~sets:256 ~ways:4 ~line_bytes:32 ~hit_latency:1) in
  ns_per_call ~calls:1000 (fun () ->
      for i = 0 to 999 do
        ignore (Cache.access c ~addr:(i * 64 land 0xFFFF) ~write:(i land 7 = 0))
      done)

let branch_bimod () =
  let b = Bimod.create 2048 in
  ns_per_call ~calls:1000 (fun () ->
      for i = 0 to 999 do
        let pc = i * 4 in
        let t = Bimod.predict b ~pc in
        Bimod.update b ~pc ~taken:(not t)
      done)

(* Per dispatched entry of a 64-slot dispatch / wakeup / compact round. *)
let ooo_iq () =
  ns_per_call ~calls:64 (fun () ->
      let iq = Iq.create 64 in
      for i = 0 to 63 do
        let s = Iq.dispatch iq in
        s.Iq.seq <- i;
        s.Iq.src1_tag <- i land 7;
        s.Iq.src2_tag <- -1;
        s.Iq.dead <- false
      done;
      for tag = 0 to 7 do
        Iq.wakeup iq ~tag ~value_i:tag ~value_f:0.
      done;
      let slots = Iq.slots iq in
      for i = 0 to Iq.count iq - 1 do
        slots.(i).Iq.dead <- i land 1 = 0
      done;
      ignore (Iq.compact iq))

let power_tick () =
  let model = Riq_power.Model.create Riq_power.Model.baseline_geometry in
  ns_per_call ~calls:1000 (fun () ->
      let a = Riq_power.Account.create model in
      for _ = 1 to 1000 do
        Riq_power.Account.add a Riq_power.Component.Icache 1.;
        Riq_power.Account.add a Riq_power.Component.Ialu 3.;
        Riq_power.Account.tick a
      done)

let loopir_compile () =
  let w = Riq_workloads.Workloads.find "vpenta" in
  ns_per_call ~calls:1 (fun () -> ignore (Riq_workloads.Workloads.optimized w)) /. 1e3

let all () =
  [
    ("unit.isa_decode_ns", isa_decode ());
    ("unit.mem_cache_access_ns", mem_cache_access ());
    ("unit.branch_bimod_ns", branch_bimod ());
    ("unit.ooo_iq_ns", ooo_iq ());
    ("unit.power_tick_ns", power_tick ());
    ("unit.loopir_compile_us", loopir_compile ());
  ]

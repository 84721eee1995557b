(* The experiment engine: fingerprint stability, the content-addressed
   cache, and the guarantee the whole subsystem rests on — a parallel
   sweep is bit-identical to a sequential one. *)

open Riq_asm
open Riq_ooo
open Riq_harness
open Riq_workloads
open Riq_exp

let tiny_program =
  Parse.program_exn
    {|
    li r2, 0
    li r3, 0
loop:
    add r2, r2, r3
    addi r3, r3, 1
    slti r4, r3, 50
    bne r4, r0, loop
    halt
|}

let tiny_job ?(check = false) ?(cycle_limit = Job.default_cycle_limit) () =
  Job.make ~check ~cycle_limit Config.baseline tiny_program

(* Never halts: with an unbounded cycle budget only a wall-clock budget or
   a kill ends it. *)
let spin_job =
  Job.make ~cycle_limit:max_int Config.baseline
    (Parse.program_exn {|
loop:
    j loop
    halt
|})

(* A few tenths of a second of simulation (0.3-0.4 s on a 2.1 GHz
   core): long enough to kill mid-job, 50 ms in. *)
let long_job =
  Job.make Config.baseline
    (Parse.program_exn
       {|
    li r2, 0
    li r3, 0
    li r5, 500000
loop:
    add r2, r2, r3
    addi r3, r3, 1
    slt r4, r3, r5
    bne r4, r0, loop
    halt
|})

let with_temp_cache f =
  let root = Filename.temp_dir "riq-cache-test" "" in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root))))
    (fun () -> f (Cache.open_ ~root ()))

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_deterministic () =
  let fp1 = Job.fingerprint (tiny_job ()) in
  let fp2 = Job.fingerprint (tiny_job ()) in
  Alcotest.(check string) "same job, same fingerprint" fp1 fp2;
  Alcotest.(check int) "hex md5 length" 32 (String.length fp1)

(* A program with every part the fingerprint image covers: two code
   words, two data segments, a non-default text base and entry. *)
let image_program ?(text_base = 0x2000) ?(entry = 0x2004)
    ?(code = [| Riq_isa.Insn.Nop; Riq_isa.Insn.Halt |])
    ?(data =
      [
        Program.Words { base = 0x8000; values = [| 1; 2; 3; 4 |] };
        Program.Floats { base = 0x9000; values = [| 1.5 |] };
      ]) ?(symbols = []) () =
  Program.make ~text_base ~entry ~data ~symbols code

let test_fingerprint_sensitivity () =
  let fp = Job.fingerprint (tiny_job ()) in
  let with_check = Job.fingerprint (tiny_job ~check:true ()) in
  let with_limit = Job.fingerprint (tiny_job ~cycle_limit:1234 ()) in
  let bigger_iq =
    Job.fingerprint (Job.make (Config.with_iq_size Config.baseline 128) tiny_program)
  in
  let reuse_cfg = Job.fingerprint (Job.make Config.reuse tiny_program) in
  let with_verdicts = Job.fingerprint (Job.make ~verdicts:true Config.baseline tiny_program) in
  let fps = [ fp; with_check; with_limit; bigger_iq; reuse_cfg; with_verdicts ] in
  Alcotest.(check int) "all distinct" (List.length fps)
    (List.length (List.sort_uniq compare fps));
  (* Every part of the program image moves the key. *)
  let key p = Job.fingerprint (Job.make Config.baseline p) in
  let base = key (image_program ()) in
  let one_bit = Int32.to_int (Int32.bits_of_float 1.5) land 0xFFFFFFFF in
  List.iter
    (fun (what, p) ->
      if key p = base then Alcotest.failf "%s does not change the fingerprint" what)
    [
      ("one code word", image_program ~code:[| Riq_isa.Insn.Halt; Riq_isa.Insn.Halt |] ());
      ( "one data value",
        image_program
          ~data:
            [
              Program.Words { base = 0x8000; values = [| 1; 2; 3; 5 |] };
              Program.Floats { base = 0x9000; values = [| 1.5 |] };
            ]
          () );
      ( "Words vs Floats with the same bits",
        image_program
          ~data:
            [
              Program.Words { base = 0x8000; values = [| 1; 2; 3; 4 |] };
              Program.Words { base = 0x9000; values = [| one_bit |] };
            ]
          () );
      ( "a different segment boundary",
        image_program
          ~data:
            [
              Program.Words { base = 0x8000; values = [| 1; 2; 3 |] };
              Program.Words { base = 0x8000; values = [| 4 |] };
              Program.Floats { base = 0x9000; values = [| 1.5 |] };
            ]
          () );
      ( "a data base",
        image_program
          ~data:
            [
              Program.Words { base = 0x8004; values = [| 1; 2; 3; 4 |] };
              Program.Floats { base = 0x9000; values = [| 1.5 |] };
            ]
          () );
      ("the entry point", image_program ~entry:0x2000 ());
      ("the text base", image_program ~text_base:0x3000 ~entry:0x3004 ());
    ];
  Alcotest.(check string) "symbols are not part of the key" base
    (key (image_program ~symbols:[ ("start", 0x2004) ] ()));
  (* What loading drops is not part of it either. *)
  Alcotest.(check string) "bits above the loaded word" base
    (key
       (image_program
          ~data:
            [
              Program.Words { base = 0x8000; values = [| 1; 2; 3 + (5 lsl 32); 4 - (1 lsl 32) |] };
              Program.Floats { base = 0x9000; values = [| 1.5 |] };
            ]
          ()));
  Alcotest.(check string) "a double that rounds to the same single" base
    (key
       (image_program
          ~data:
            [
              Program.Words { base = 0x8000; values = [| 1; 2; 3; 4 |] };
              Program.Floats { base = 0x9000; values = [| 1.5 +. 1e-12 |] };
            ]
          ()))

(* The batch form hashes exactly what the single form does, whether the
   jobs share a program by pointer or hold equal copies. The last two
   programs differ only past what [Hashtbl.hash] looks at, so they share
   a bucket and only identity tells their images apart. *)
let test_fingerprints_batch () =
  let btrix = Workloads.program (Workloads.find "btrix") in
  let tsf = Workloads.program (Workloads.find "tsf") in
  let late_change =
    image_program
      ~data:
        [
          Program.Words
            { base = 0x8000; values = Array.init 64 (fun i -> if i = 63 then 7 else i) };
          Program.Floats { base = 0x9000; values = [| 1.5 |] };
        ]
      ()
  in
  let unchanged =
    image_program
      ~data:
        [
          Program.Words { base = 0x8000; values = Array.init 64 Fun.id };
          Program.Floats { base = 0x9000; values = [| 1.5 |] };
        ]
      ()
  in
  Alcotest.(check int) "the two share a structural hash" (Hashtbl.hash late_change)
    (Hashtbl.hash unchanged);
  let jobs =
    Array.of_list
      (List.concat_map
         (fun p ->
           [
             Job.make Config.baseline p;
             Job.make ~check:true (Config.with_iq_size Config.reuse 32) p;
             Job.make ~verdicts:true ~cycle_limit:99 Config.reuse p;
           ])
         [
           btrix;
           tsf;
           btrix;
           tiny_program;
           { tsf with Program.symbols = [] };
           late_change;
           unchanged;
         ])
  in
  Alcotest.(check (array string))
    "fingerprints = map fingerprint" (Array.map Job.fingerprint jobs) (Job.fingerprints jobs);
  Alcotest.(check (array string)) "empty batch" [||] (Job.fingerprints [||])

(* Two keys pinned as literals, under the format version and revision
   stamp they were taken at. A stamp bump adds a row. A change to the
   fingerprint's image moves these under an unchanged row and fails here:
   such a change must bump [Revision.format_version] (the cache keys it
   writes under are new) and add a row, never edit one. *)
let pinned_fingerprints =
  [
    ( (7, "riq-sim-2026-10-17.1"),
      ("9bfe7248db97eb724b79bfcc0ee6bdda", "8df5bdf248831a723ca2cb2c02a61eff") );
    ( (8, "riq-sim-2026-10-17.1"),
      ("9df75a1ef3f04b04c26955b7daa2149a", "6e4d11b23c94f0ac6c62c51b3d4d642f") );
  ]

let test_fingerprint_pinned () =
  let tiny = Job.fingerprint (tiny_job ()) in
  let btrix =
    Job.fingerprint
      (Job.make (Config.with_iq_size Config.reuse 32)
         (Workloads.program (Workloads.find "btrix")))
  in
  match List.assoc_opt (Revision.format_version, Revision.stamp) pinned_fingerprints with
  | None ->
      Alcotest.failf "no pinned fingerprints for format %d, stamp %s (now %s, %s)"
        Revision.format_version Revision.stamp tiny btrix
  | Some (tiny_pin, btrix_pin) ->
      Alcotest.(check string) "tiny job" tiny_pin tiny;
      Alcotest.(check string) "btrix reuse IQ 32" btrix_pin btrix

(* The property the on-disk cache depends on: the fingerprint of the same
   job computed in a different process is byte-identical. *)
let test_fingerprint_cross_process () =
  if not Sys.unix then ()
  else begin
    let job = Job.make ~check:true (Config.with_iq_size Config.reuse 128) tiny_program in
    let parent_fp = Job.fingerprint job in
    let r, w = Unix.pipe () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        let fp = Bytes.of_string (Job.fingerprint job) in
        let rec write_all off =
          if off < Bytes.length fp then
            write_all (off + Unix.write w fp off (Bytes.length fp - off))
        in
        write_all 0;
        Unix.close w;
        Unix._exit 0
    | pid ->
        Unix.close w;
        let buf = Buffer.create 32 in
        let chunk = Bytes.create 64 in
        let rec drain () =
          let n = Unix.read r chunk 0 64 in
          if n > 0 then begin
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
          end
        in
        drain ();
        Unix.close r;
        ignore (Unix.waitpid [] pid);
        Alcotest.(check string) "child fingerprint matches parent" parent_fp
          (Buffer.contents buf)
  end

(* ---- The key is a function of the loaded image ---- *)

(* Random programs built as records, without [Program.make]'s checks
   (only the key reads them): up to 8 code words, up to 3 data segments
   of either kind, and ints and doubles of every width, including bits
   [Program.load] drops. *)
let gen_program =
  let open QCheck.Gen in
  let word = oneof [ int; int_range (-5) 5; map (fun v -> v land 0xFFFFFFFF) int ] in
  let double =
    oneof
      [
        map Int64.float_of_bits ui64;
        map Int32.float_of_bits ui32;
        float;
      ]
  in
  let segment =
    let* base = map (fun b -> 4 * b) (int_bound 0xFFFFF) in
    let* n = int_bound 12 in
    oneof
      [
        map (fun values -> Program.Words { base; values }) (array_repeat n word);
        map (fun values -> Program.Floats { base; values }) (array_repeat n double);
      ]
  in
  let* code = array_size (int_range 1 8) Test_isa.gen_insn in
  let* text_base = map (fun b -> 4 * b) (int_bound 0xFFFFF) in
  let* entry = oneof [ return text_base; map (fun b -> 4 * b) (int_bound 0xFFFFF) ] in
  let* data = list_size (int_bound 3) segment in
  return { Program.text_base; code; data; entry; symbols = [] }

let gen_config =
  let open QCheck.Gen in
  let* cfg = oneofl [ Config.baseline; Config.reuse; Config.loop_cache 16 ] in
  let* iq = oneofl [ 16; 32; 64; 128; 256 ] in
  let* nblt = int_bound 16 in
  let* multiple = bool in
  return
    {
      (Config.with_iq_size cfg iq) with
      Config.nblt_entries = nblt;
      buffer_multiple_iterations = multiple;
    }

let gen_job =
  let open QCheck.Gen in
  let* cfg = gen_config in
  let* program = gen_program in
  let* check = bool in
  let* verdicts = bool in
  let* cycle_limit = oneof [ return Job.default_cycle_limit; nat ] in
  return (Job.make ~check ~verdicts ~cycle_limit cfg program)

let print_job (j : Job.t) =
  Format.asprintf "%a@.data %s" Program.pp_listing j.program
    (String.concat "; "
       (List.map
          (function
            | Program.Words { base; values } ->
                Printf.sprintf "W %#x [%s]" base
                  (String.concat "," (Array.to_list (Array.map string_of_int values)))
            | Program.Floats { base; values } ->
                Printf.sprintf "F %#x [%s]" base
                  (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") values))))
          j.program.data))

let single f = Int32.bits_of_float f

(* A double with the same single-precision bits as [f], most often a
   different one: the single itself with random bits below half of its
   last place, falling back to [f] where that would not round back
   (infinities and NaNs). *)
let same_single r f =
  let g =
    Int64.float_of_bits
      (Int64.logor
         (Int64.bits_of_float (Int32.float_of_bits (single f)))
         (Int64.of_int (Random.State.bits r land 0xFFFFFFF)))
  in
  if single g = single f then g else f

let map_data f (p : Program.t) = { p with Program.data = List.map f p.data }

let prop_key_ignores_dropped_bits =
  QCheck.Test.make ~name:"key ignores what loading drops" ~count:300
    (QCheck.make ~print:(fun (j, _) -> print_job j) QCheck.Gen.(pair gen_job int))
    (fun ((j : Job.t), seed) ->
      let r = Random.State.make [| seed |] in
      let loaded_alike =
        map_data
          (function
            | Program.Words { base; values } ->
                Program.Words
                  {
                    base;
                    values = Array.map (fun v -> v + ((Random.State.int r 7 - 3) lsl 32)) values;
                  }
            | Program.Floats { base; values } ->
                Program.Floats { base; values = Array.map (same_single r) values })
          j.program
      in
      Job.fingerprint j = Job.fingerprint { j with program = loaded_alike })

(* Every single-bit change to a field of the key, one per kind, with the
   field and the bit chosen at random. [None] where the program has no
   such field (no data segment, no value) or no flip of the chosen code
   word decodes back to the flipped word. *)
let bit_flips r (j : Job.t) =
  let p = j.program in
  let flip v b = v lxor (1 lsl b) in
  let pick a = a.(Random.State.int r (Array.length a)) in
  let segs = Array.of_list p.data in
  let with_seg f =
    if segs = [||] then None
    else
      let k = Random.State.int r (Array.length segs) in
      Option.map
        (fun s -> { j with program = { p with data = List.mapi (fun i x -> if i = k then s else x) p.data } })
        (f segs.(k))
  in
  let int_field = Random.State.int r 63 in
  let set_cfg cfg = Some { j with cfg } in
  let c = j.cfg in
  let cfg_flips =
    [|
      (fun b -> { c with Config.iq_entries = flip c.Config.iq_entries b });
      (fun b -> { c with Config.rob_entries = flip c.Config.rob_entries b });
      (fun b -> { c with Config.lsq_entries = flip c.Config.lsq_entries b });
      (fun b -> { c with Config.fetch_width = flip c.Config.fetch_width b });
      (fun b -> { c with Config.nblt_entries = flip c.Config.nblt_entries b });
      (fun b -> { c with Config.loop_cache_entries = flip c.Config.loop_cache_entries b });
      (fun _ -> { c with Config.reuse_enabled = not c.Config.reuse_enabled });
      (fun _ ->
        { c with Config.buffer_multiple_iterations = not c.Config.buffer_multiple_iterations });
      (fun b ->
        { c with Config.mem = { c.Config.mem with tlb_miss_penalty = flip c.Config.mem.tlb_miss_penalty b } });
      (fun b ->
        { c with Config.bpred = { c.Config.bpred with entries = flip c.Config.bpred.entries b } });
    |]
  in
  [
    ( "a loaded word",
      with_seg (function
        | Program.Words { base; values } when values <> [||] ->
            let i = Random.State.int r (Array.length values) in
            let values = Array.copy values in
            values.(i) <- flip values.(i) (Random.State.int r 32);
            Some (Program.Words { base; values })
        | Program.Floats { base; values } when values <> [||] ->
            let i = Random.State.int r (Array.length values) in
            let b = Random.State.int r 32 in
            let g = Int32.float_of_bits (Int32.logxor (single values.(i)) (Int32.shift_left 1l b)) in
            (* A signalling NaN's flip can come back quiet: no flip then. *)
            if single g = single values.(i) then None
            else begin
              let values = Array.copy values in
              values.(i) <- g;
              Some (Program.Floats { base; values })
            end
        | _ -> None) );
    ( "a code word",
      let i = Random.State.int r (Array.length p.code) in
      let w = Riq_isa.Encode.encode p.code.(i) in
      let canonical b =
        match Riq_isa.Encode.decode (flip w b) with
        | Ok insn when Riq_isa.Encode.encode insn = flip w b -> Some insn
        | _ -> None
      in
      Option.map
        (fun insn ->
          let code = Array.copy p.code in
          code.(i) <- insn;
          { j with program = { p with code } })
        (let start = Random.State.int r 32 in
         List.find_map canonical (List.init 32 (fun k -> (k + start) mod 32))) );
    ( "a segment tag",
      with_seg (function
        | Program.Words { base; values } ->
            Some
              (Program.Floats
                 { base; values = Array.map (fun v -> Int32.float_of_bits (Int32.of_int v)) values })
        | Program.Floats { base; values } ->
            Some
              (Program.Words
                 { base; values = Array.map (fun f -> Int32.to_int (single f) land 0xFFFFFFFF) values })) );
    ( "a segment base",
      with_seg (function
        | Program.Words { base; values } -> Some (Program.Words { base = flip base int_field; values })
        | Program.Floats { base; values } ->
            Some (Program.Floats { base = flip base int_field; values })) );
    ( "a segment length",
      let resize a n zero = Array.init n (fun i -> if i < Array.length a then a.(i) else zero) in
      let b = Random.State.int r 5 in
      with_seg (function
        | Program.Words { base; values } ->
            Some (Program.Words { base; values = resize values (flip (Array.length values) b) 0 })
        | Program.Floats { base; values } ->
            Some (Program.Floats { base; values = resize values (flip (Array.length values) b) 0. }))
    );
    ("the entry", Some { j with program = { p with entry = flip p.entry int_field } });
    ("the text base", Some { j with program = { p with text_base = flip p.text_base int_field } });
    ("the check flag", Some { j with check = not j.check });
    ("the verdicts flag", Some { j with verdicts = not j.verdicts });
    ("the cycle limit", Some { j with cycle_limit = flip j.cycle_limit int_field });
    ("the configuration", set_cfg ((pick cfg_flips) (Random.State.int r 62)));
  ]

let prop_key_sees_every_bit =
  QCheck.Test.make ~name:"key moves with every loaded bit and job field" ~count:300
    (QCheck.make ~print:(fun (j, _) -> print_job j) QCheck.Gen.(pair gen_job int))
    (fun ((j : Job.t), seed) ->
      let key = Job.fingerprint j in
      List.iter
        (fun (what, flipped) ->
          match flipped with
          | Some f when Job.fingerprint f = key ->
              QCheck.Test.fail_reportf "flipping %s leaves the key at %s" what key
          | _ -> ())
        (bit_flips (Random.State.make [| seed |]) j);
      true)

(* Random batches over a few programs, each job holding one of them by
   pointer, as a fresh record of the same fields, as a deep copy, or as
   a copy whose [Words] segments each gain a trailing value: a different
   program that [Hashtbl.hash] mostly cannot tell apart. *)
let prop_batch_is_map =
  let gen =
    let open QCheck.Gen in
    let* programs = array_size (int_range 1 4) gen_program in
    let* picks = list_size (int_range 1 24) (triple (int_bound 3) (int_bound 3) gen_job) in
    return
      (Array.of_list
         (List.map
            (fun (k, how, (j : Job.t)) ->
              let p = programs.(k mod Array.length programs) in
              let program =
                match how with
                | 0 -> p
                | 1 -> { p with Program.symbols = [] }
                | 2 ->
                    map_data
                      (function
                        | Program.Words { base; values } ->
                            Program.Words { base; values = Array.copy values }
                        | Program.Floats { base; values } ->
                            Program.Floats { base; values = Array.copy values })
                      { p with Program.code = Array.copy p.code }
                | _ ->
                    map_data
                      (function
                        | Program.Words { base; values } ->
                            Program.Words { base; values = Array.append values [| 7 |] }
                        | d -> d)
                      p
              in
              { j with program })
            picks))
  in
  QCheck.Test.make ~name:"fingerprints = map fingerprint on shared programs" ~count:200
    (QCheck.make ~print:(fun js -> String.concat "\n---\n" (Array.to_list (Array.map print_job js))) gen)
    (fun jobs -> Job.fingerprints jobs = Array.map Job.fingerprint jobs)

(* Hashing follows the distinct program bytes, not jobs times bytes: 64
   jobs over one [btrix] program (104,001 data values) cost about what
   one such job does. It was 53x when every job hashed its own image. *)
let test_fingerprints_per_program () =
  let btrix = Workloads.program (Workloads.find "btrix") in
  let job = Job.make (Config.with_iq_size Config.reuse 32) btrix in
  let batch = Array.init 64 (fun i -> { job with Job.cycle_limit = job.Job.cycle_limit + i }) in
  let best f =
    List.fold_left min infinity
      (List.init 5 (fun _ ->
           let t0 = Unix.gettimeofday () in
           ignore (Sys.opaque_identity (f ()));
           Unix.gettimeofday () -. t0))
  in
  let one = best (fun () -> Job.fingerprints [| job |]) in
  let many = best (fun () -> Job.fingerprints batch) in
  if not (many < 4. *. one) then
    Alcotest.failf "64 jobs sharing btrix took %.2f ms, one job %.2f ms (%.1fx)" (many *. 1e3)
      (one *. 1e3) (many /. one)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_round_trip () =
  with_temp_cache (fun cache ->
      let job = tiny_job () in
      let key = Job.fingerprint job in
      Alcotest.(check bool) "cold miss" true (Cache.find cache key = None);
      let outcome = Runner.execute job in
      Alcotest.(check bool) "tiny job succeeds" true (Result.is_ok outcome);
      Cache.store cache key outcome;
      (match Cache.find cache key with
      | None -> Alcotest.fail "stored entry not found"
      | Some cached -> Alcotest.(check bool) "bit-identical round trip" true (cached = outcome));
      (* Deterministic errors cache too. *)
      let err : Outcome.t = Error (Outcome.Cycle_limit_exceeded 42) in
      let key2 = Job.fingerprint (tiny_job ~cycle_limit:42 ()) in
      Cache.store cache key2 err;
      Alcotest.(check bool) "error round trip" true (Cache.find cache key2 = Some err);
      (* Host-dependent failures never do. *)
      let key3 = Job.fingerprint (tiny_job ~cycle_limit:43 ()) in
      Cache.store cache key3 (Error (Outcome.Worker_crashed "boom"));
      Alcotest.(check bool) "crash not cached" true (Cache.find cache key3 = None))

let test_cache_corruption_is_miss () =
  with_temp_cache (fun cache ->
      let job = tiny_job () in
      let key = Job.fingerprint job in
      Cache.store cache key (Runner.execute job);
      let path = Cache.path cache key in
      let oc = open_out path in
      output_string oc "garbage";
      close_out oc;
      Alcotest.(check bool) "corrupt entry reads as miss" true (Cache.find cache key = None))

(* Every single-bit corruption and every truncation of a stored entry
   reads as a miss: nothing is unmarshalled before the revision stamp and
   the payload digest check out, so a damaged file can neither crash the
   reader nor come back as a different outcome. *)
let test_cache_bit_flips_are_misses () =
  with_temp_cache (fun cache ->
      let job =
        Job.make (Config.with_iq_size Config.reuse 32)
          (Workloads.program (Workloads.find "tsf"))
      in
      let key = Job.fingerprint job in
      let outcome = Runner.execute job in
      Cache.store cache key outcome;
      let file = Cache.path cache key in
      let intact = In_channel.with_open_bin file In_channel.input_all in
      let write s = Out_channel.with_open_bin file (fun oc -> output_string oc s) in
      let hits = ref 0 in
      for bit = 0 to (8 * String.length intact) - 1 do
        let b = Bytes.of_string intact in
        let i = bit / 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
        write (Bytes.to_string b);
        if Cache.find cache key <> None then incr hits
      done;
      Alcotest.(check int) "no bit-flipped entry is a hit" 0 !hits;
      for len = 0 to String.length intact - 1 do
        write (String.sub intact 0 len);
        if Cache.find cache key <> None then incr hits
      done;
      Alcotest.(check int) "no truncated entry is a hit" 0 !hits;
      write intact;
      Alcotest.(check bool) "intact entry is a hit" true (Cache.find cache key = Some outcome))

(* ------------------------------------------------------------------ *)
(* Worker pool faults                                                  *)
(* ------------------------------------------------------------------ *)

(* One select + collect over the pool, bounded so a broken pool fails the
   test instead of hanging it. *)
let step pool =
  let readable, _, _ =
    Workers.restart_on_intr (fun () -> Unix.select (Workers.fds pool) [] [] 10.)
  in
  if readable = [] then Alcotest.fail "no worker became readable";
  Workers.collect pool readable

let reaped pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

let test_workers_kill_once () =
  if Sys.unix then begin
    let expected = Outcome.zero_timing (Runner.execute long_job) in
    let pool = Workers.create ~workers:1 ~timeout:None () in
    let first, last =
      Fun.protect
        ~finally:(fun () -> Workers.shutdown pool)
        (fun () ->
          Workers.submit pool () long_job;
          let first = List.hd (Workers.pids pool) in
          ignore (Unix.select [] [] [] 0.05);
          Unix.kill first Sys.sigkill;
          Alcotest.(check int) "death is not a result" 0 (List.length (step pool));
          Alcotest.(check int) "one retry" 1 (Workers.retries pool);
          match step pool with
          | [ f ] ->
              Alcotest.(check bool) "rerun matches in-process" true
                (Outcome.zero_timing f.Workers.outcome = expected);
              Alcotest.(check bool) "rerun on a replacement" true (f.Workers.pid <> first);
              (first, f.Workers.pid)
          | _ -> Alcotest.fail "expected exactly one finished job")
    in
    Alcotest.(check bool) "no worker left after shutdown" true (reaped first && reaped last)
  end

let test_workers_kill_twice () =
  if Sys.unix then begin
    let pool = Workers.create ~workers:1 ~timeout:None () in
    let pids =
      Fun.protect
        ~finally:(fun () -> Workers.shutdown pool)
        (fun () ->
          Workers.submit pool "spin" spin_job;
          let first = List.hd (Workers.pids pool) in
          Unix.kill first Sys.sigkill;
          Alcotest.(check int) "first death is retried" 0 (List.length (step pool));
          let second = List.hd (Workers.pids pool) in
          Unix.kill second Sys.sigkill;
          (match step pool with
          | [ { Workers.key = "spin"; outcome = Error (Outcome.Worker_crashed _); _ } ] -> ()
          | _ -> Alcotest.fail "expected the job reported as Worker_crashed");
          Alcotest.(check int) "one retry" 1 (Workers.retries pool);
          [ first; second ])
    in
    Alcotest.(check bool) "no worker left after shutdown" true (List.for_all reaped pids)
  end

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let small_benchmarks () = [ Workloads.find "tsf"; Workloads.find "wss" ]

(* The acceptance property: a 4-worker parallel sweep is bit-identical to
   the sequential sweep. Structural equality covers every statistic and
   every power number in every cell. *)
let test_parallel_sweep_bit_identical () =
  let sizes = [ 32; 64 ] in
  let benchmarks = small_benchmarks () in
  let sequential = Sweep.run ~sizes ~benchmarks ~check:false () in
  let parallel =
    Sweep.run ~engine:(Engine.create ~workers:4 ()) ~sizes ~benchmarks ~check:false ()
  in
  (* [sim_seconds] measures the host, not the job — normalize it away
     before the structural comparison (see [Outcome.zero_timing]). *)
  let norm_cells cells =
    List.map
      (fun (bench, per_size) ->
        ( bench,
          List.map
            (fun (size, c) ->
              let z (r : Outcome.sim_result) = { r with Outcome.sim_seconds = 0. } in
              (size, { Sweep.baseline = z c.Sweep.baseline; reuse = z c.Sweep.reuse }))
            per_size ))
      cells
  in
  Alcotest.(check bool) "cells bit-identical" true
    (norm_cells sequential.Sweep.cells = norm_cells parallel.Sweep.cells)

let test_warm_cache_executes_nothing () =
  with_temp_cache (fun cache ->
      let jobs = [| tiny_job (); Job.make Config.reuse tiny_program |] in
      let cold = Engine.create ~cache () in
      let cold_out = Engine.run cold jobs in
      Alcotest.(check int) "cold run simulates" 2 (Engine.stats cold).Engine.executed;
      let warm = Engine.create ~cache ~workers:2 () in
      let warm_out = Engine.run warm jobs in
      let s = Engine.stats warm in
      Alcotest.(check int) "warm run simulates nothing" 0 s.Engine.executed;
      Alcotest.(check int) "every job a cache hit" 2 s.Engine.cache_hits;
      Alcotest.(check bool) "warm results identical" true (cold_out = warm_out))

let test_engine_dedup () =
  let jobs = [| tiny_job (); tiny_job (); tiny_job () |] in
  let engine = Engine.create () in
  let out = Engine.run engine jobs in
  let s = Engine.stats engine in
  Alcotest.(check int) "one execution" 1 s.Engine.executed;
  Alcotest.(check int) "two deduped" 2 s.Engine.deduped;
  Alcotest.(check bool) "identical outcomes" true (out.(0) = out.(1) && out.(1) = out.(2))

(* A job past the wall-clock budget is killed and recorded; the batch's
   other jobs are untouched. Two or more jobs, because a single job runs
   in-process, where no budget applies. *)
let test_engine_timeout () =
  let jobs = [| tiny_job (); spin_job; Job.make Config.reuse tiny_program |] in
  let engine = Engine.create ~workers:2 ~timeout:0.5 () in
  let out = Engine.run engine jobs in
  Alcotest.(check bool) "non-halting job timed out" true
    (out.(1) = Error (Outcome.Job_timeout 0.5));
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "job %d matches in-process" i)
        true
        (Outcome.zero_timing out.(i) = Outcome.zero_timing (Runner.execute jobs.(i))))
    [ 0; 2 ];
  Alcotest.(check int) "one timeout counted" 1 (Engine.stats engine).Engine.timeouts

(* One diverging job must not take the batch down — and must keep its
   structured error. Run through the pool to exercise the worker path. *)
let test_per_job_failure_recorded () =
  let jobs = [| tiny_job (); tiny_job ~cycle_limit:10 () |] in
  let engine = Engine.create ~workers:2 () in
  let out = Engine.run engine jobs in
  Alcotest.(check bool) "good job ok" true (Result.is_ok out.(0));
  Alcotest.(check bool) "starved job structured" true
    (out.(1) = Error (Outcome.Cycle_limit_exceeded 10));
  Alcotest.(check int) "failure counted" 1 (Engine.stats engine).Engine.failures

let test_run_simulate_result () =
  let job = tiny_job ~cycle_limit:10 () in
  (match Runner.simulate job with
  | Ok _ -> Alcotest.fail "expected cycle-limit error"
  | Error e ->
      Alcotest.(check bool) "structured error" true (e = Outcome.Cycle_limit_exceeded 10));
  Alcotest.(check bool) "execute reports it" true
    (Runner.execute job = Error (Outcome.Cycle_limit_exceeded 10))

(* ---- Runner.check on crafted runs: one broken invariant each ---- *)

(* A genuine finished run of [tiny_program] on [cfg], for the checks to
   read and the cases below to corrupt. *)
let finished cfg =
  match Runner.simulate (Job.make cfg tiny_program) with
  | Ok (p, _) -> Runner.observe p
  | Error e -> Alcotest.failf "tiny program: %s" (Outcome.error_to_string e)

let expect_error name pred job run =
  match Runner.check job run with
  | Error e when pred e -> ()
  | Error e -> Alcotest.failf "%s: wrong error: %s" name (Outcome.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: check passed" name

let is_accounting = function Outcome.Accounting_mismatch _ -> true | _ -> false

let test_check_genuine_runs_pass () =
  let off = Job.make ~check:true Config.baseline tiny_program in
  let on = Job.make ~check:true ~verdicts:true Config.reuse tiny_program in
  Alcotest.(check bool) "reuse-off passes, no verdicts" true
    (Runner.check off (finished Config.baseline) = Ok None);
  let r = finished Config.reuse in
  Alcotest.(check bool) "the reuse run promotes" true
    (r.Runner.stats.Riq_core.Processor.promotions > 0);
  match Runner.check on r with
  | Ok (Some report) ->
      Alcotest.(check bool) "static analysis saw the loop" true
        (report.Riq_analysis.Bufferability.loops <> [])
  | Ok None -> Alcotest.fail "verdict job returned no verdicts"
  | Error e -> Alcotest.failf "genuine run failed: %s" (Outcome.error_to_string e)

(* A genuine reuse run handed in as the reuse-off leg: its counters are
   self-consistent, so only the reuse-off invariant can catch it. *)
let test_check_reuse_off_reports_reuse () =
  let r = finished Config.reuse in
  Alcotest.(check bool) "the reuse run reuses" true
    (r.Runner.stats.Riq_core.Processor.reuse_committed > 0);
  expect_error "reuse-off with reused commits" is_accounting
    (Job.make Config.baseline tiny_program)
    r

let test_check_reuse_without_promotion () =
  let r = finished Config.reuse in
  let stats =
    { r.Runner.stats with Riq_core.Processor.reuse_committed = 5; promotions = 0 }
  in
  expect_error "reused commits, no promotion" is_accounting
    (Job.make Config.reuse tiny_program)
    { r with Runner.stats; decisions = [] }

let test_check_per_loop_promotions () =
  let r = finished Config.reuse in
  let st = r.Runner.stats in
  let stats =
    { st with Riq_core.Processor.promotions = st.Riq_core.Processor.promotions + 1 }
  in
  expect_error "per-loop promotions != stats.promotions" is_accounting
    (Job.make Config.reuse tiny_program)
    { r with Runner.stats }

let test_check_flipped_register () =
  let r = finished Config.reuse in
  let int_regs = Array.copy r.Runner.arch.Riq_interp.Machine.int_regs in
  int_regs.(2) <- int_regs.(2) lxor 1;
  expect_error "flipped register"
    (function Outcome.Arch_state_mismatch _ -> true | _ -> false)
    (Job.make ~check:true Config.reuse tiny_program)
    { r with Runner.arch = { r.Runner.arch with Riq_interp.Machine.int_regs } }

(* ---- Runner.check on forged loop decisions: the verdict cross-check ---- *)

(* A genuine verdict-checked reuse run of tsf at the default IQ (64): its
   outer loop 00001020..000010e8 is hard-rejected (an inner back edge at
   00001094), and its inner loop 00001030..00001094 is a clean window. *)
let tsf_run =
  lazy
    (let job =
       Job.make ~verdicts:true Config.reuse (Workloads.program (Workloads.find "tsf"))
     in
     match Runner.simulate job with
     | Ok (p, _) -> (job, Runner.observe p)
     | Error e -> Alcotest.failf "tsf: %s" (Outcome.error_to_string e))

(* [r] with its decision at [tail] (a copy of another loop's when the run
   has none there) replaced by [forge] of it, and stats.promotions
   resummed, so the accounting step still passes. *)
let forged r ~tail forge =
  let open Riq_core.Processor in
  let base =
    match List.find_opt (fun d -> d.ld_tail = tail) r.Runner.decisions with
    | Some d -> d
    | None ->
        { (List.hd r.Runner.decisions) with ld_head = tail; ld_tail = tail; ld_promotions = 0 }
  in
  let decisions =
    forge base :: List.filter (fun d -> d.ld_tail <> tail) r.Runner.decisions
  in
  let promotions = List.fold_left (fun n d -> n + d.ld_promotions) 0 decisions in
  { r with Runner.decisions; stats = { r.Runner.stats with promotions } }

let test_check_verdict_cross_check () =
  let job, r = Lazy.force tsf_run in
  (match Runner.check job r with
  | Ok (Some _) -> ()
  | Ok None -> Alcotest.fail "verdict job returned no verdicts"
  | Error e -> Alcotest.failf "genuine tsf run failed: %s" (Outcome.error_to_string e));
  let expect name message r =
    match Runner.check job r with
    | Error (Outcome.Verdict_mismatch got) -> Alcotest.(check string) name message got
    | Error e -> Alcotest.failf "%s: wrong error: %s" name (Outcome.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: check passed" name
  in
  let open Riq_core.Processor in
  expect "promoted hard-rejected loop"
    "loop 00001020..000010e8 promoted 2 times despite static inner-loop (backward \
     transfer at 00001094)"
    (forged r ~tail:0x10e8 (fun d -> { d with ld_promotions = d.ld_promotions + 2 }));
  expect "promotion at an unknown tail"
    "loop tail 00001004 promoted 1 times but is unknown to the analysis"
    (forged r ~tail:0x1004 (fun d -> { d with ld_promotions = 1 }));
  expect "inner-loop revokes on a clean window"
    "loop 00001030..00001094 took 3 inner-loop revokes despite a clean window scan \
     (static verdict ok)"
    (forged r ~tail:0x1094 (fun d ->
         { d with ld_revokes = d.ld_revokes + 3; ld_rv_inner = d.ld_rv_inner + 3 }))

let test_json_export () =
  let sizes = [ 32 ] in
  let benchmarks = [ Workloads.find "tsf" ] in
  let engine = Engine.create () in
  let sweep = Sweep.run ~engine ~sizes ~benchmarks ~check:false () in
  let s = Riq_util.Json.to_string (Sweep.to_json ~engine sweep) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("export contains " ^ needle) true
        (let n = String.length needle and h = String.length s in
         let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
         go 0))
    [
      "\"schema\":\"riq-sweep/3\"";
      "\"benchmark\":\"tsf\"";
      "\"iq_size\":32";
      "\"gated_fraction\"";
      "\"power\"";
      "\"engine\"";
      "\"executed\":2";
    ]

let test_json_printer () =
  let open Riq_util.Json in
  Alcotest.(check string) "compact"
    {|{"a":1,"b":[true,null,"x\n"],"c":{"d":0.5}}|}
    (to_string
       (Obj [ ("a", Int 1); ("b", List [ Bool true; Null; String "x\n" ]); ("c", Obj [ ("d", Float 0.5) ]) ]));
  Alcotest.(check string) "nan is null" {|[null]|} (to_string (List [ Float Float.nan ]))

let suites =
  [
    ( "exp",
      [
        Alcotest.test_case "fingerprint deterministic" `Quick test_fingerprint_deterministic;
        Alcotest.test_case "fingerprint sensitivity" `Quick test_fingerprint_sensitivity;
        Alcotest.test_case "fingerprints batch" `Quick test_fingerprints_batch;
        Alcotest.test_case "fingerprint pinned" `Quick test_fingerprint_pinned;
        Alcotest.test_case "fingerprint cross-process" `Quick test_fingerprint_cross_process;
        QCheck_alcotest.to_alcotest prop_key_ignores_dropped_bits;
        QCheck_alcotest.to_alcotest prop_key_sees_every_bit;
        QCheck_alcotest.to_alcotest prop_batch_is_map;
        Alcotest.test_case "fingerprints hash per program" `Quick
          test_fingerprints_per_program;
        Alcotest.test_case "cache round trip" `Quick test_cache_round_trip;
        Alcotest.test_case "cache corruption" `Quick test_cache_corruption_is_miss;
        Alcotest.test_case "cache bit flips are misses" `Quick
          test_cache_bit_flips_are_misses;
        Alcotest.test_case "workers kill once, rerun" `Quick test_workers_kill_once;
        Alcotest.test_case "workers kill twice, crashed" `Quick test_workers_kill_twice;
        Alcotest.test_case "engine timeout" `Quick test_engine_timeout;
        Alcotest.test_case "parallel sweep bit-identical" `Slow
          test_parallel_sweep_bit_identical;
        Alcotest.test_case "warm cache executes nothing" `Quick
          test_warm_cache_executes_nothing;
        Alcotest.test_case "engine dedup" `Quick test_engine_dedup;
        Alcotest.test_case "per-job failure recorded" `Quick test_per_job_failure_recorded;
        Alcotest.test_case "run simulate_result" `Quick test_run_simulate_result;
        Alcotest.test_case "check: genuine runs pass" `Quick test_check_genuine_runs_pass;
        Alcotest.test_case "check: reuse-off with reused commits" `Quick
          test_check_reuse_off_reports_reuse;
        Alcotest.test_case "check: reused commits, no promotion" `Quick
          test_check_reuse_without_promotion;
        Alcotest.test_case "check: per-loop promotions sum" `Quick
          test_check_per_loop_promotions;
        Alcotest.test_case "check: flipped register" `Quick test_check_flipped_register;
        Alcotest.test_case "check: forged decisions vs verdicts" `Quick
          test_check_verdict_cross_check;
        Alcotest.test_case "sweep json export" `Slow test_json_export;
        Alcotest.test_case "json printer" `Quick test_json_printer;
      ] );
  ]

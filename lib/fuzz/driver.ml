open Riq_ooo
open Riq_exp

let configs =
  [
    ("default", (Config.reuse, Gen.default));
    ("small-iq", (Config.with_iq_size Config.reuse 16, Gen.small_iq));
    ( "big-iq",
      (Config.with_iq_size Config.reuse 128, { Gen.default with Gen.iq_size = 128 })
    );
    ("no-nblt", ({ Config.reuse with Config.nblt_entries = 0 }, Gen.default));
    ( "single-iter",
      ({ Config.reuse with Config.buffer_multiple_iterations = false }, Gen.default)
    );
  ]

let config name =
  match List.assoc_opt name configs with
  | Some c -> Ok c
  | None ->
      Error
        (Printf.sprintf "unknown config %S (have: %s)" name
           (String.concat ", " (List.map fst configs)))

type failure = {
  f_seed : int;
  f_index : int;
  f_detail : string;
  f_repro : Prog.t;
  f_repro_insns : int;
}

type agg = {
  programs : int;
  static_insns : int;
  committed : int;
  attempts : int;
  revokes : int;
  promotions : int;
  exits : int;
  reuse_committed : int;
}

type result = {
  config_name : string;
  base_seed : int;
  passed : int;
  failures : failure list;
  agg : agg;
}

(* Shrink against the full in-process oracle: any failure keeps the
   candidate (chasing a second bug the shrink uncovers is fine — the repro
   still fails the oracle); a program that stops assembling is dead. *)
let shrink ~cfg prog =
  let still_fails p =
    match Prog.to_program p with
    | Error _ -> false
    | Ok program -> Result.is_error (Oracle.check ~cfg program)
  in
  Shrink.minimize ~still_fails prog

let run ?engine ~config:name ~seed ~count () =
  match config name with
  | Error _ as e -> e
  | Ok (cfg, params) ->
      let engine =
        match engine with Some e -> e | None -> Engine.create ~workers:1 ()
      in
      let progs =
        Array.init count (fun i ->
            Gen.program ~params ~seed:(Gen.derive_seed seed i) ())
      in
      let programs =
        Array.map
          (fun p ->
            match Prog.to_program p with
            | Ok program -> program
            | Error msg ->
                (* A generator invariant broke; surface it loudly rather
                   than skewing the campaign. *)
                failwith
                  (Printf.sprintf "fuzz generator emitted invalid assembly (seed %d): %s"
                     p.Prog.seed msg))
          progs
      in
      (* The oracle's two legs per program, reuse-off first; each job
         carries every check, so the outcomes are the diagnosis. *)
      let jobs =
        Array.concat
          (Array.to_list
             (Array.map
                (fun program ->
                  let off, on = Oracle.legs cfg program in
                  [| off; on |])
                programs))
      in
      let outcomes = Engine.run engine jobs in
      let agg = ref
          {
            programs = count;
            static_insns = 0;
            committed = 0;
            attempts = 0;
            revokes = 0;
            promotions = 0;
            exits = 0;
            reuse_committed = 0;
          }
      in
      let failures = ref [] in
      Array.iteri
        (fun i program ->
          let a = !agg in
          agg :=
            { a with
              static_insns = a.static_insns + Array.length program.Riq_asm.Program.code
            };
          let off = outcomes.(2 * i) and on = outcomes.((2 * i) + 1) in
          (match on with
          | Ok r ->
              let st = r.Outcome.stats in
              let a = !agg in
              agg :=
                {
                  a with
                  committed = a.committed + st.Riq_core.Processor.committed;
                  attempts = a.attempts + st.Riq_core.Processor.buffer_attempts;
                  revokes = a.revokes + st.Riq_core.Processor.revokes;
                  promotions = a.promotions + st.Riq_core.Processor.promotions;
                  exits = a.exits + st.Riq_core.Processor.reuse_exits;
                  reuse_committed =
                    a.reuse_committed + st.Riq_core.Processor.reuse_committed;
                }
          | Error _ -> ());
          match Oracle.first_failure (off, on) with
          | None -> ()
          | Some f ->
              let repro = shrink ~cfg progs.(i) in
              failures :=
                {
                  f_seed = progs.(i).Prog.seed;
                  f_index = i;
                  f_detail = Oracle.failure_to_string f;
                  f_repro = repro;
                  f_repro_insns = Prog.size_insns repro;
                }
                :: !failures)
        programs;
      let failures = List.rev !failures in
      Ok
        {
          config_name = name;
          base_seed = seed;
          passed = count - List.length failures;
          failures;
          agg = !agg;
        }

let first_line s =
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let summary_to_string r =
  let b = Buffer.create 1024 in
  let a = r.agg in
  Buffer.add_string b
    (Printf.sprintf "riq-fuzz: config=%s seed=%d programs=%d\n" r.config_name
       r.base_seed a.programs);
  Buffer.add_string b
    (Printf.sprintf "result: pass=%d fail=%d\n" r.passed (List.length r.failures));
  Buffer.add_string b
    (Printf.sprintf "corpus: static_insns=%d committed=%d\n" a.static_insns
       a.committed);
  Buffer.add_string b
    (Printf.sprintf
       "reuse: attempts=%d revokes=%d promotions=%d exits=%d reuse_committed=%d\n"
       a.attempts a.revokes a.promotions a.exits a.reuse_committed);
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "FAIL program=%d seed=%d repro_insns=%d: %s\n" f.f_index
           f.f_seed f.f_repro_insns (first_line f.f_detail)))
    r.failures;
  Buffer.contents b

let repro_text ~config_name f =
  let header =
    String.concat "\n"
      (List.map
         (fun l -> "# " ^ l)
         (("riq-fuzz reproducer: replay with `riq-fuzz replay <this file> --config "
          ^ config_name ^ "`")
         :: Printf.sprintf "seed %d (program %d of its campaign)" f.f_seed f.f_index
         :: String.split_on_char '\n' f.f_detail))
  in
  header ^ "\n" ^ Prog.render f.f_repro

(* riq-fuzz: differential fuzzer for the reuse mechanism.

   Subcommands:
     run    — generate N seeded programs, run each on the reference
              interpreter and on the out-of-order core with reuse off and
              on (fanned out over the experiment engine's worker pool),
              shrink any divergence and write standalone repros
     gen    — print one generated program's assembly
     replay — re-run one repro (or any assembly file) through the full
              in-process oracle

   The `run` summary on stdout is deterministic — byte-identical across
   runs, worker counts and cache states — so CI can diff two invocations;
   engine statistics and progress go to stderr. *)

open Cmdliner
open Riq_fuzz

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"SEED"
         ~doc:"Base seed; program $(i,i) uses the derived seed $(i,mix(SEED, i)).")

let config_arg =
  let names = String.concat ", " (List.map fst Driver.configs) in
  Arg.(value & opt string "default" & info [ "config"; "c" ] ~docv:"NAME"
         ~doc:(Printf.sprintf "Campaign configuration (%s)." names))

(* Refused where it is parsed, before the cache opens: exits 2. *)
let jobs_arg =
  let check n =
    if n < 1 then failwith (Printf.sprintf "--jobs %d: must be at least 1" n);
    n
  in
  Term.(
    const check
    $ Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Number of worker processes (1 = in-process, no fork)."))

let get_config name =
  match Driver.config name with Ok c -> c | Error msg -> failwith msg

let run_cmd =
  let count =
    Arg.(value & opt int 500 & info [ "count"; "n" ] ~docv:"N"
           ~doc:"Number of programs to generate and check.")
  in
  (* Refused where it is parsed, before the campaign runs: exits 2. *)
  let out =
    let check = function
      | Some dir as out ->
          let parent = Filename.dirname dir in
          if not (Sys.file_exists parent && Sys.is_directory parent) then
            failwith (Printf.sprintf "--out %s: no such directory %s" dir parent);
          out
      | None -> None
    in
    Term.(
      const check
      $ Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"DIR"
               ~doc:"Write shrunk reproducers as \\$(DIR)/repro-<seed>.s."))
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the on-disk result cache.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Result cache root (default \\$RIQ_CACHE_DIR or .riq-cache).")
  in
  let serve =
    Arg.(value & opt (some string) None & info [ "serve" ] ~docv:"ADDR"
           ~doc:"Run simulations through a $(b,riq-sim serve) daemon listening on \
                 the Unix socket ADDR instead of local workers.")
  in
  let action count seed jobs config out no_cache cache_dir serve =
    ignore (get_config config);
    let progress =
      let last = ref (-1) in
      fun (p : Riq_exp.Engine.progress) ->
        if p.Riq_exp.Engine.finished <> !last then begin
          last := p.Riq_exp.Engine.finished;
          Printf.eprintf "\r[fuzz] %d/%d jobs | %d cache hits, %d run, %d failed%!"
            p.Riq_exp.Engine.finished p.Riq_exp.Engine.total
            p.Riq_exp.Engine.cache_hits p.Riq_exp.Engine.executed
            p.Riq_exp.Engine.failures;
          if p.Riq_exp.Engine.finished = p.Riq_exp.Engine.total then
            Printf.eprintf "\n%!"
        end
    in
    let engine =
      match serve with
      | Some addr ->
          let client = Riq_svc.Client.connect (Riq_svc.Protocol.address_of_string addr) in
          Riq_exp.Engine.create ~backend:(Riq_svc.Client.backend client)
            ~on_progress:progress ()
      | None ->
          let cache =
            if no_cache then None else Some (Riq_exp.Cache.open_ ?root:cache_dir ())
          in
          Riq_exp.Engine.create ~workers:jobs ?cache ~on_progress:progress ()
    in
    let r =
      match Driver.run ~engine ~config ~seed ~count () with
      | Ok r -> r
      | Error msg -> failwith msg
    in
    let s = Riq_exp.Engine.stats engine in
    (* Logger (stderr by default), never stdout: the stdout summary must
       stay byte-identical across worker counts and cache states for
       CI's diff. *)
    Riq_obs.Log.info ~scope:"fuzz"
      ~kv:
        [
          ("jobs", Riq_obs.Log.int s.Riq_exp.Engine.jobs);
          ("cache_hits", Riq_obs.Log.int s.Riq_exp.Engine.cache_hits);
          ("deduped", Riq_obs.Log.int s.Riq_exp.Engine.deduped);
          ("executed", Riq_obs.Log.int s.Riq_exp.Engine.executed);
          ("retries", Riq_obs.Log.int s.Riq_exp.Engine.retries);
          ("timeouts", Riq_obs.Log.int s.Riq_exp.Engine.timeouts);
          ("wall_seconds", Riq_obs.Log.float s.Riq_exp.Engine.wall_seconds);
        ]
      "campaign engine summary";
    print_string (Driver.summary_to_string r);
    (match out with
    | None -> ()
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (f : Driver.failure) ->
            let path = Filename.concat dir (Printf.sprintf "repro-%d.s" f.Driver.f_seed) in
            let oc = open_out path in
            output_string oc (Driver.repro_text ~config_name:config f);
            close_out oc;
            Riq_obs.Log.info ~scope:"fuzz"
              ~kv:[ ("path", path) ]
              "wrote reproducer")
          r.Driver.failures);
    if r.Driver.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a differential fuzzing campaign")
    Term.(const action $ count $ seed_arg $ jobs_arg $ config_arg $ out $ no_cache
          $ cache_dir $ serve)

let gen_cmd =
  let index =
    Arg.(value & opt int 0 & info [ "index"; "i" ] ~docv:"I"
           ~doc:"Campaign index: generate the program `run` would check as program I.")
  in
  let action seed config index =
    let _, params = get_config config in
    let prog = Gen.program ~params ~seed:(Gen.derive_seed seed index) () in
    print_string (Prog.render prog)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Print one generated program's assembly")
    Term.(const action $ seed_arg $ config_arg $ index)

let replay_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Assembly file (typically a repro written by `run --out`).")
  in
  let action file config =
    let cfg, _ = get_config config in
    let ic = open_in file in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let program = Riq_asm.Parse.program_exn src in
    match Oracle.check ~cfg program with
    | Ok s ->
        Printf.printf
          "PASS %s: %d committed, %d attempts, %d revokes, %d promotions, %d reused\n"
          file s.Oracle.committed s.Oracle.attempts s.Oracle.revokes
          s.Oracle.promotions s.Oracle.reuse_committed
    | Error f ->
        Printf.printf "FAIL %s: %s\n" file (Oracle.failure_to_string f);
        exit 1
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Re-run a reproducer through the in-process oracle")
    Term.(const action $ file $ config_arg)

let () =
  let doc = "Differential fuzzer for the reusable-instruction issue queue" in
  let info = Cmd.info "riq-fuzz" ~version:"1.0.0" ~doc in
  let cmd = Cmd.group info [ run_cmd; gen_cmd; replay_cmd ] in
  exit
    (try Cmd.eval ~catch:false cmd with
    | Failure msg | Sys_error msg ->
        Printf.eprintf "riq-fuzz: %s\n" msg;
        2
    | e ->
        Printf.eprintf "riq-fuzz: internal error, uncaught exception:\n  %s\n"
          (Printexc.to_string e);
        125)

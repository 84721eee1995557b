(* riq-cache: the shared result store's one maintainer.

   The store is the engine's content-addressed result cache
   ({!Riq_exp.Cache}). Local sweeps, fuzz campaigns and serve daemons
   share its tree but only read and write entries (a hit refreshes the
   entry's mtime, the LRU order). Walking the tree and deleting from it
   happen here alone, under the store's maintenance lock, so concurrent
   runs of this tool serialize. A bounded store runs [evict] on a timer,
   as it runs [gc]:

     stat  — entry count, total bytes, age span
     gc    — drop entries older than a cutoff
     evict — drop least-recently-used entries down to a byte budget *)

open Cmdliner

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Store root (default \\$RIQ_CACHE_DIR or .riq-cache).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let open_store cache_dir = Riq_exp.Cache.open_ ?root:cache_dir ()

let human_bytes b =
  if b >= 1024 * 1024 then Printf.sprintf "%.1f MiB" (float_of_int b /. 1048576.)
  else if b >= 1024 then Printf.sprintf "%.1f KiB" (float_of_int b /. 1024.)
  else Printf.sprintf "%d B" b

(* The machine-readable stat is a riq-metrics/1 document, so CI asserts
   on store state with the same parser it uses for daemon scrapes. *)
let stat_metrics_json store =
  let module M = Riq_obs.Metrics in
  let s = Riq_exp.Cache.stat store in
  let registry = M.create () in
  let gauge name help v = M.set (M.gauge registry ~help name) v in
  gauge "store_entries" "Entries in the shared store" (float_of_int s.Riq_exp.Cache.entry_count);
  gauge "store_bytes" "Total bytes across store entries" (float_of_int s.Riq_exp.Cache.total_bytes);
  let now = Unix.gettimeofday () in
  (match s.Riq_exp.Cache.oldest_mtime with
  | Some t -> gauge "store_oldest_age_seconds" "Age of the least recently used entry" (now -. t)
  | None -> ());
  (match s.Riq_exp.Cache.newest_mtime with
  | Some t -> gauge "store_newest_age_seconds" "Age of the most recently used entry" (now -. t)
  | None -> ());
  M.to_json (M.snapshot registry)

let stat_cmd =
  let action cache_dir json =
    let store = open_store cache_dir in
    if json then print_endline (Riq_util.Json.to_string (stat_metrics_json store))
    else begin
      let s = Riq_exp.Cache.stat store in
      Printf.printf "root      %s\n" (Riq_exp.Cache.root store);
      Printf.printf "entries   %d\n" s.Riq_exp.Cache.entry_count;
      Printf.printf "bytes     %d (%s)\n" s.Riq_exp.Cache.total_bytes
        (human_bytes s.Riq_exp.Cache.total_bytes);
      let now = Unix.gettimeofday () in
      (match s.Riq_exp.Cache.oldest_mtime with
      | Some t -> Printf.printf "oldest    %.0f s ago\n" (now -. t)
      | None -> ());
      match s.Riq_exp.Cache.newest_mtime with
      | Some t -> Printf.printf "newest    %.0f s ago\n" (now -. t)
      | None -> ()
    end
  in
  Cmd.v
    (Cmd.info "stat" ~doc:"Entry count, total bytes and age span of the store")
    Term.(const action $ cache_dir_arg $ json_arg)

let gc_cmd =
  let older_than =
    Arg.(required & opt (some float) None & info [ "older-than" ] ~docv:"SECONDS"
           ~doc:"Remove entries whose last use is older than this many seconds; \
                 anything newer is never touched.")
  in
  let action cache_dir json older_than =
    let store = open_store cache_dir in
    let removed, bytes = Riq_exp.Cache.gc store ~max_age_seconds:older_than in
    if json then
      print_endline
        (Riq_util.Json.to_string
           (Riq_util.Json.Obj
              [ ("removed", Riq_util.Json.Int removed);
                ("bytes_freed", Riq_util.Json.Int bytes) ]))
    else Printf.printf "removed %d entries, freed %s\n" removed (human_bytes bytes)
  in
  Cmd.v
    (Cmd.info "gc" ~doc:"Remove store entries older than a cutoff")
    Term.(const action $ cache_dir_arg $ json_arg $ older_than)

let evict_cmd =
  let budget =
    Arg.(required & opt (some int) None & info [ "budget-mb" ] ~docv:"MB"
           ~doc:"Evict least-recently-used entries until the store fits this budget.")
  in
  let action cache_dir json budget =
    (* Refused before the store is touched: a larger budget's byte count
       would wrap past max_int, to a budget of nothing. *)
    if budget > max_int / 1048576 then
      failwith (Printf.sprintf "--budget-mb %d is above %d" budget (max_int / 1048576));
    let store = open_store cache_dir in
    let removed = Riq_exp.Cache.evict_to_budget store (budget * 1048576) in
    if json then
      print_endline
        (Riq_util.Json.to_string
           (Riq_util.Json.Obj [ ("removed", Riq_util.Json.Int removed) ]))
    else Printf.printf "evicted %d entries\n" removed
  in
  Cmd.v
    (Cmd.info "evict" ~doc:"Evict least-recently-used entries down to a byte budget")
    Term.(const action $ cache_dir_arg $ json_arg $ budget)

let () =
  let doc = "Maintenance for the shared simulation result store" in
  let info = Cmd.info "riq-cache" ~version:"1.0.0" ~doc in
  exit
    (try Cmd.eval ~catch:false (Cmd.group info [ stat_cmd; gc_cmd; evict_cmd ]) with
    | Failure msg | Invalid_argument msg ->
        Printf.eprintf "riq-cache: %s\n" msg;
        2
    | e ->
        Printf.eprintf "riq-cache: internal error, uncaught exception:\n  %s\n"
          (Printexc.to_string e);
        125)

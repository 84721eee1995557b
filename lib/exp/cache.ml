(* On-disk content-addressed result cache.

   Layout:  <root>/v<format>/<revision-stamp>/<k0k1>/<fingerprint>
   where <k0k1> is the first two hex digits of the fingerprint (256-way
   fan-out keeps directories small on big sweeps). Each entry is one text
   line, "<revision-stamp> <hex md5 of the payload>\n", followed by the
   marshalled outcome. A read checks the stamp and the digest before it
   unmarshals anything: a flipped bit or a truncation reads as a miss,
   never as a crash or a wrong hit, and a mislaid file can never leak
   stale results.

   Writes go through a per-process temporary file renamed into place, so
   concurrent writers (parallel workers, or two sweeps racing) are safe:
   rename is atomic and last-writer-wins with identical contents.

   Sharing the tree between many processes adds:
   - hits touch the entry's mtime, giving the tree a cross-process
     recency order without any index file;
   - a kernel lock on <root>/.riq-lock for the maintenance operations
     (eviction and gc walk-and-delete; plain entry writes don't need it);
   - LRU eviction to a byte budget, and an age-based gc, both of which
     only ever delete whole entries — a reader that raced an eviction
     sees a miss, never a torn file. Only riq-cache runs them: the daemon
     and the engine read and write entries, and never walk the tree. *)

module Metrics = Riq_obs.Metrics

let default_root () =
  match Sys.getenv_opt "RIQ_CACHE_DIR" with
  | Some dir when dir <> "" -> dir
  | _ -> ".riq-cache"

(* Registered against a caller-supplied registry so the daemon, the
   engine and the CLIs each see their own process's cache traffic under
   the same metric names. *)
type instruments = {
  i_hits : Metrics.counter;
  i_misses : Metrics.counter;
  i_writes : Metrics.counter;
}

let instruments_of registry =
  let counter = Metrics.counter registry in
  {
    i_hits =
      counter ~help:"Store reads served from the shared tree"
        ~labels:[ ("result", "hit") ] "store_reads_total";
    i_misses =
      counter ~help:"Store reads served from the shared tree"
        ~labels:[ ("result", "miss") ] "store_reads_total";
    i_writes = counter ~help:"Outcomes written to the store" "store_writes_total";
  }

type t = { root : string; dir : string; ins : instruments option }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?root ?metrics () =
  let root = match root with Some r -> r | None -> default_root () in
  let dir =
    Filename.concat
      (Filename.concat root (Printf.sprintf "v%d" Revision.format_version))
      Revision.stamp
  in
  mkdir_p dir;
  { root; dir; ins = Option.map instruments_of metrics }

let count t f = match t.ins with None -> () | Some ins -> Metrics.inc (f ins)
let root t = t.root

let path t key =
  if String.length key < 2 then invalid_arg "Cache.path: key too short";
  Filename.concat (Filename.concat t.dir (String.sub key 0 2)) key

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

let header payload =
  Printf.sprintf "%s %s\n" Revision.stamp (Digest.to_hex (Digest.string payload))

let decode data : Outcome.t option =
  match String.index_opt data '\n' with
  | None -> None
  | Some i ->
      let payload = String.sub data (i + 1) (String.length data - i - 1) in
      if String.sub data 0 (i + 1) <> header payload then None
      else Some (Marshal.from_string payload 0)

let touch file = try Unix.utimes file 0. 0. (* both zero = set to now *) with _ -> ()

let find t key =
  let file = path t key in
  match decode (In_channel.with_open_bin file In_channel.input_all) with
  | Some outcome ->
      (* Recency for LRU eviction: hits refresh the entry's mtime. *)
      touch file;
      count t (fun i -> i.i_hits);
      Some outcome
  | None | (exception _) ->
      count t (fun i -> i.i_misses);
      None

(* ------------------------------------------------------------------ *)
(* Maintenance lock                                                    *)
(* ------------------------------------------------------------------ *)

let lock_path t = Filename.concat t.root ".riq-lock"

(* A [lockf] record lock on the lock file, opened read-write, held until
   the descriptor closes. [F_LOCK] waits for a holder. The kernel drops
   the lock when its holder exits, however it dies, so no lock outlives
   its process. It excludes other processes only: a second lock in the
   same process is granted, and closing either descriptor drops both. *)
let with_lock t f =
  let fd = Unix.openfile (lock_path t) [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.lockf fd Unix.F_LOCK 0;
      f ())

(* ------------------------------------------------------------------ *)
(* Entry walk                                                          *)
(* ------------------------------------------------------------------ *)

type entry = { e_path : string; e_bytes : int; e_mtime : float }

(* Walks every format/revision subtree under the root, so stat/gc/evict
   also see (and can reclaim) entries orphaned by a bump. Temp files and
   the lockfile are not entries. *)
let entries t =
  let acc = ref [] in
  let is_entry name =
    (* 32-hex-digit fingerprint, no suffix *)
    String.length name = 32
    && String.for_all
         (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
         name
  in
  let rec walk dir =
    match Sys.readdir dir with
    | exception _ -> ()
    | names ->
        Array.iter
          (fun name ->
            let path = Filename.concat dir name in
            match Unix.lstat path with
            | exception _ -> ()
            | { Unix.st_kind = Unix.S_DIR; _ } -> walk path
            | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ }
              when is_entry name ->
                acc := { e_path = path; e_bytes = st_size; e_mtime = st_mtime } :: !acc
            | _ -> ())
          names
  in
  walk t.root;
  !acc

type stat = {
  entry_count : int;
  total_bytes : int;
  oldest_mtime : float option;
  newest_mtime : float option;
}

let stat t =
  let es = entries t in
  let bytes = List.fold_left (fun a e -> a + e.e_bytes) 0 es in
  let fold f =
    match es with
    | [] -> None
    | e :: rest -> Some (List.fold_left (fun a e -> f a e.e_mtime) e.e_mtime rest)
  in
  {
    entry_count = List.length es;
    total_bytes = bytes;
    oldest_mtime = fold min;
    newest_mtime = fold max;
  }

let remove_entry e = try Sys.remove e.e_path with _ -> ()

(* Evict least-recently-used entries until the tree fits the budget.
   Under the lock so two maintainers don't double-delete; entry removal
   itself is safe against concurrent readers (they just miss). *)
let evict_to_budget t budget =
  if budget < 0 then invalid_arg (Printf.sprintf "evict: negative byte budget %d" budget);
  with_lock t (fun () ->
      let es = List.sort (fun a b -> compare a.e_mtime b.e_mtime) (entries t) in
      let total = List.fold_left (fun a e -> a + e.e_bytes) 0 es in
      let over = ref (total - budget) in
      let removed = ref 0 in
      List.iter
        (fun e ->
          if !over > 0 then begin
            remove_entry e;
            over := !over - e.e_bytes;
            incr removed
          end)
        es;
      !removed)

(* Deletes entries whose mtime is strictly older than [now - max_age];
   anything newer than the cutoff survives by construction. A negative
   age would put the cutoff in the future and delete everything. Returns
   (entries removed, bytes freed). *)
let gc ?(now = Unix.gettimeofday ()) t ~max_age_seconds =
  if max_age_seconds < 0. then
    invalid_arg (Printf.sprintf "gc: negative age %g s" max_age_seconds);
  with_lock t (fun () ->
      let cutoff = now -. max_age_seconds in
      List.fold_left
        (fun (n, bytes) e ->
          if e.e_mtime < cutoff then begin
            remove_entry e;
            (n + 1, bytes + e.e_bytes)
          end
          else (n, bytes))
        (0, 0) (entries t))

(* ------------------------------------------------------------------ *)
(* Write                                                               *)
(* ------------------------------------------------------------------ *)

(* Distinguishes two temp files written by the same process for the same
   key (e.g. an engine and a serve daemon sharing one root). *)
let tmp_counter = ref 0

let store t key (outcome : Outcome.t) =
  if Outcome.cacheable outcome then begin
    let file = path t key in
    incr tmp_counter;
    let tmp = Printf.sprintf "%s.tmp.%d.%d" file (Unix.getpid ()) !tmp_counter in
    let payload = Marshal.to_string outcome [] in
    (* Best-effort: a cache that cannot be written (read-only tree, full
       disk, permissions) degrades to a pass-through, it never kills the
       experiment that was trying to warm it. Only an entry renamed into
       place counts as a write. *)
    (try
       mkdir_p (Filename.dirname file);
       let oc = open_out_bin tmp in
       try
         output_string oc (header payload);
         output_string oc payload;
         close_out oc;
         Sys.rename tmp file;
         count t (fun i -> i.i_writes)
       with exn ->
         close_out_noerr oc;
         (try Sys.remove tmp with _ -> ());
         raise exn
     with _ -> ())
  end

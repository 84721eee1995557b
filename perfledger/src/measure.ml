(* Clocks, order statistics, process memory and the bench-side spans. *)

module Tracer = Riq_obs.Tracer

let wall = Unix.gettimeofday
let cpu () = (Unix.times ()).Unix.tms_utime

let median a = Riq_util.Stats.quantile 0.5 a

(* Quartiles the way Python's statistics.quantiles(values, n=4) gives
   them (its default "exclusive" method), so the ledger's spreads match
   any external check done with Python. Needs two values or more. *)
let quartiles values =
  let a = Array.copy values in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then invalid_arg "quartiles: need at least two values";
  let m = n + 1 in
  let q i =
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Peak resident set ([VmHWM]) of a process, in MB; 0 when unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
          | Some kb -> float_of_int kb /. 1024.
          | None -> acc)
        0. (String.split_on_char '\n' text)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Bench-side span: a Chrome "X" event in wall-clock microseconds under
   this process's pid, so it lines up with the client's and the daemon's
   spans in one Perfetto file. With the null tracer it is a plain call. *)
let span tracer ?(args = []) name f =
  if not (Tracer.enabled tracer) then f ()
  else begin
    let t0 = wall () in
    let r = f () in
    let t1 = wall () in
    Tracer.complete tracer
      ~now:(int_of_float (t0 *. 1e6))
      ~dur:(int_of_float ((t1 -. t0) *. 1e6))
      ~args ~cat:"ledger" name;
    r
  end

(* Seconds [f] takes, with [f]'s result. *)
let timed f =
  let t0 = wall () in
  let r = f () in
  (wall () -. t0, r)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" | "warning" -> Ok Warn
  | "error" -> Ok Error
  | other -> Error (Printf.sprintf "unknown log level %S" other)

(* Environment is read once, lazily, so tests can set RIQ_LOG before the
   first message; set_level overrides the level afterwards. *)
let env_level () =
  match Sys.getenv_opt "RIQ_LOG" with
  | None -> Info
  | Some s -> ( match level_of_string s with Ok l -> l | Error _ -> Info)

let current_level = ref None (* None = not yet initialized from env *)

let level () =
  match !current_level with
  | Some l -> l
  | None ->
      let l = env_level () in
      current_level := Some l;
      l

let set_level l = current_level := Some l

let enabled l = severity l >= severity (level ())

(* logfmt value: bare when it is one unquoted token, quoted otherwise. *)
let needs_quoting v =
  v = ""
  || String.exists
       (function ' ' | '"' | '=' | '\n' | '\t' -> true | _ -> false)
       v

let render_value v =
  if not (needs_quoting v) then v
  else begin
    let b = Buffer.create (String.length v + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c -> Buffer.add_char b c)
      v;
    Buffer.add_char b '"';
    Buffer.contents b
  end

let timestamp () =
  let now = Unix.gettimeofday () in
  let tm = Unix.gmtime now in
  let ms = int_of_float ((now -. Float.of_int (int_of_float now)) *. 1000.) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec (max 0 (min 999 ms))

let log l ~scope ?(kv = []) msg =
  if enabled l then begin
    let b = Buffer.create 128 in
    Buffer.add_string b ("ts=" ^ timestamp ());
    Buffer.add_string b (" level=" ^ level_to_string l);
    Buffer.add_string b (" scope=" ^ render_value scope);
    Buffer.add_string b (" msg=" ^ render_value msg);
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%s" k (render_value v)))
      kv;
    Buffer.add_char b '\n';
    try
      output_string stderr (Buffer.contents b);
      flush stderr
    with _ -> () (* a full disk must not take the daemon down *)
  end

let debug ~scope ?kv msg = log Debug ~scope ?kv msg
let info ~scope ?kv msg = log Info ~scope ?kv msg
let warn ~scope ?kv msg = log Warn ~scope ?kv msg

let int = string_of_int
let float v = Printf.sprintf "%g" v

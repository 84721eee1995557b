(* Length-prefixed framing over a file descriptor.

   Every message between a client and the daemon — request or response —
   is one frame: a 4-byte big-endian body length, then the body: UTF-8
   JSON, optionally followed by one 0x00 byte and a binary payload (a
   supply's jobs, a held reply's outcomes). The JSON printer escapes 0x00
   and the parser rejects it, so the first 0x00 of a body ends its JSON
   and finding it scans the JSON only. The fixed prefix makes the stream
   self-delimiting, keeps partial reads trivially resumable (the daemon's
   event loop accumulates bytes per connection and takes whole frames off
   the front) and puts a hard bound on per-message memory before a single
   body byte is read. The daemon talks to its workers in marshalled
   frames instead; those belong to {!Riq_exp.Workers}. *)

let max_frame = 64 * 1024 * 1024
(* A submit carries 32-character fingerprints; the only job bodies on the
   wire are a supply's, the jobs the daemon lacks, marshalled as one
   array so shared programs travel once. A cold 64-job paper sweep
   supplies 0.78 MB. Anything near the cap is a protocol error or a
   hostile peer, not a bigger sweep. *)

exception Closed
exception Protocol_error of string

let write_all = Riq_exp.Workers.write_all

(* [read_exact fd n] raises [Closed] on EOF before [n] bytes. *)
let read_exact fd n =
  try Riq_exp.Workers.read_exact fd n with End_of_file -> raise Closed

let frame ?payload json =
  let text = Riq_util.Json.to_string json in
  let n = String.length text in
  let len = match payload with None -> n | Some p -> n + 1 + String.length p in
  if len > max_frame then raise (Protocol_error "frame too large");
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string text 0 b 4 n;
  Option.iter
    (fun p ->
      Bytes.set b (4 + n) '\000';
      Bytes.blit_string p 0 b (5 + n) (String.length p))
    payload;
  b

let send ?payload fd json = write_all fd (frame ?payload json)

(* The body length a 4-byte header announces. *)
let body_length header =
  let len = Int32.to_int (String.get_int32_be header 0) in
  if len < 0 || len > max_frame then
    raise (Protocol_error (Printf.sprintf "bad frame length %d" len));
  len

(* A body is its JSON up to the first 0x00, and the payload after it. *)
let split body =
  let json, payload =
    match String.index_opt body '\000' with
    | None -> (body, None)
    | Some i ->
        (String.sub body 0 i, Some (String.sub body (i + 1) (String.length body - i - 1)))
  in
  Result.map (fun j -> (j, payload)) (Riq_util.Json.of_string json)

let recv fd =
  let len = body_length (Bytes.unsafe_to_string (read_exact fd 4)) in
  match split (Bytes.unsafe_to_string (read_exact fd len)) with
  | Ok message -> message
  | Error msg -> raise (Protocol_error msg)

(* A frame is copied out of the buffer only once it is whole, so a large
   supply arriving in many reads costs one copy, not one per read. *)
let take buf =
  let have = Buffer.length buf in
  if have < 4 then None
  else
    let len = body_length (Buffer.sub buf 0 4) in
    if have < 4 + len then None
    else begin
      let body = Buffer.sub buf 4 len in
      let rest = Buffer.sub buf (4 + len) (have - 4 - len) in
      Buffer.clear buf;
      Buffer.add_string buf rest;
      Some (split body)
    end

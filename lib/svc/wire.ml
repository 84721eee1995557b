(* Length-prefixed framing over a file descriptor.

   Every message between a client and the daemon — request or response —
   is one frame: a 4-byte big-endian body length, then the body: UTF-8
   JSON, optionally followed by one 0x00 byte and a binary payload (a
   supply's jobs, a held reply's outcomes). The JSON printer escapes 0x00
   and the parser rejects it, so the first 0x00 of a body ends its JSON
   and finding it scans the JSON only. The fixed prefix makes the stream
   self-delimiting, keeps partial reads trivially resumable (the daemon's
   event loop accumulates bytes per connection in a {!reader} and takes
   whole frames off the front) and puts a hard bound on per-message
   memory before a single body byte is read. The daemon talks to its
   workers in marshalled frames instead; those belong to
   {!Riq_exp.Workers}. *)

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

(* The body length of the header at [off]. *)
let body_length b off =
  let len = Int32.to_int (Bytes.get_int32_be b off) in
  if len < 0 || len > max_frame then
    raise (Protocol_error (Printf.sprintf "bad frame length %d" len));
  len

(* A body, the [len] bytes at [off], is its JSON up to the first 0x00 and
   the payload after it. *)
let split b off len =
  let stop = off + len in
  let rec nul i = if i = stop || Bytes.get b i = '\000' then i else nul (i + 1) in
  let i = nul off in
  let payload =
    if i = stop then None else Some (Bytes.sub_string b (i + 1) (stop - i - 1))
  in
  Result.map
    (fun j -> (j, payload))
    (Riq_util.Json.of_string (Bytes.sub_string b off (i - off)))

let recv fd =
  let len = body_length (read_exact fd 4) 0 in
  match split (read_exact fd len) 0 len with
  | Ok message -> message
  | Error msg -> raise (Protocol_error msg)

(* Bytes [start, stop) of [buf] are read and not yet taken. *)
type reader = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

let chunk = 65536
let reader () = { buf = Bytes.create chunk; start = 0; stop = 0 }
let buffered r = r.stop - r.start

(* The bytes not yet taken move to the front once per read, not once per
   frame taken, so draining a read of many small frames is linear in its
   size; the buffer grows only to hold a frame that is larger than it. *)
let read r fd =
  let have = buffered r in
  if r.start > 0 then begin
    Bytes.blit r.buf r.start r.buf 0 have;
    r.start <- 0;
    r.stop <- have
  end;
  if Bytes.length r.buf - have < chunk then begin
    let b = Bytes.create (max (2 * Bytes.length r.buf) (have + chunk)) in
    Bytes.blit r.buf 0 b 0 have;
    r.buf <- b
  end;
  let n = Unix.read fd r.buf have chunk in
  r.stop <- have + n;
  n

(* A frame is copied out only once it is whole, so a large supply
   arriving in many reads costs one copy, not one per read. *)
let take r =
  if buffered r < 4 then None
  else
    let len = body_length r.buf r.start in
    if buffered r < 4 + len then None
    else begin
      let off = r.start + 4 in
      r.start <- off + len;
      Some (split r.buf off len)
    end

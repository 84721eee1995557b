(* Length-prefixed JSON framing over a file descriptor.

   Every message between a client and the daemon — request or response —
   is one frame: a 4-byte big-endian payload length followed by that many
   bytes of UTF-8 JSON. The fixed prefix makes the stream self-delimiting
   without scanning, keeps partial reads trivially resumable (the server's
   event loop accumulates bytes per connection and peels off whole frames)
   and puts a hard bound on per-message memory before a single payload
   byte is read. The daemon talks to its workers in marshalled frames
   instead; those belong to {!Riq_exp.Workers}. *)

let max_frame = 64 * 1024 * 1024
(* A submit carries 32-character fingerprints; the only job bodies on the
   wire are a supply's, the jobs the daemon lacks, marshalled as one
   array so shared programs travel once. A cold 64-job paper sweep
   supplies 0.78 MB marshalled, 1.6 MB as hex. Anything near the cap is a
   protocol error or a hostile peer, not a bigger sweep. *)

exception Closed
exception Protocol_error of string

let write_all = Riq_exp.Workers.write_all

(* [read_exact fd n] raises [Closed] on EOF before [n] bytes. *)
let read_exact fd n =
  try Riq_exp.Workers.read_exact fd n with End_of_file -> raise Closed

let frame json =
  let payload = Bytes.unsafe_of_string (Riq_util.Json.to_string json) in
  let len = Bytes.length payload in
  if len > max_frame then raise (Protocol_error "frame too large");
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit payload 0 b 4 len;
  b

let send fd json = write_all fd (frame json)

let recv fd =
  let hdr = read_exact fd 4 in
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || len > max_frame then
    raise (Protocol_error (Printf.sprintf "bad frame length %d" len));
  let payload = read_exact fd len in
  match Riq_util.Json.of_string (Bytes.to_string payload) with
  | Ok json -> json
  | Error msg -> raise (Protocol_error msg)

(* ------------------------------------------------------------------ *)
(* Hex transport encoding for opaque binary payloads                    *)
(* ------------------------------------------------------------------ *)

(* Marshalled jobs and outcomes ride inside JSON strings. Hex rather than
   base64: two lines of code each way, no padding corner cases, and the
   payloads are small enough that the 2x size is irrelevant next to
   simulation time. *)

let to_hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  let digit v = if v < 10 then Char.chr (Char.code '0' + v) else Char.chr (Char.code 'a' + v - 10) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) (digit (c lsr 4));
    Bytes.set b ((2 * i) + 1) (digit (c land 0xF))
  done;
  Bytes.unsafe_to_string b

let of_hex s =
  let n = String.length s in
  if n land 1 = 1 then raise (Protocol_error "odd-length hex payload");
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise (Protocol_error "bad hex digit")
  in
  let b = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    Bytes.set b i (Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))
  done;
  Bytes.unsafe_to_string b

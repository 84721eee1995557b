open Riq_isa
open Riq_asm
open Riq_ooo

type t = {
  cfg : Config.t;
  program : Program.t;
  check : bool;
  verdicts : bool;
  cycle_limit : int;
}

let default_cycle_limit = 100_000_000

let make ?(check = false) ?(verdicts = false) ?(cycle_limit = default_cycle_limit)
    cfg program =
  { cfg; program; check; verdicts; cycle_limit }

(* The fingerprint is one MD5 over a binary image of exactly what
   determines the simulation's output. Integers are 8-byte little-endian,
   code words 4-byte:

     text_base entry n_code word*n_code n_segments
     { tag base n_values value*n_values }*        tag 'W' ints, 'F' float bits
     stamp_len stamp cfg_len cfg check verdicts cycle_limit

   The program is hashed through [Encode.encode] rather than the AST, so
   two programs that load identically fingerprint identically; labels and
   symbols are left out. [Config.t] is a closed tree of scalars and
   immutable records, so its marshalled bytes are a canonical encoding.
   Every variable-length field carries its length, so no two jobs write
   the same image. The program comes first: a batch writes each program's
   part once and appends each job's fields after it. *)

let program_length (p : Program.t) =
  List.fold_left
    (fun acc -> function
      | Program.Words { values; _ } -> acc + 17 + (8 * Array.length values)
      | Program.Floats { values; _ } -> acc + 17 + (8 * Array.length values))
    (32 + (4 * Array.length p.code))
    p.data

let set_int b off v = Bytes.set_int64_le b off (Int64.of_int v)

(* Writes [p]'s part of the image at the start of [b]. *)
let write_program b (p : Program.t) =
  let n_code = Array.length p.code in
  set_int b 0 p.text_base;
  set_int b 8 p.entry;
  set_int b 16 n_code;
  for i = 0 to n_code - 1 do
    Bytes.set_int32_le b (24 + (4 * i)) (Int32.of_int (Encode.encode p.code.(i)))
  done;
  let off = ref (24 + (4 * n_code)) in
  set_int b !off (List.length p.data);
  off := !off + 8;
  List.iter
    (fun init ->
      let tag, base, n =
        match init with
        | Program.Words { base; values } -> ('W', base, Array.length values)
        | Program.Floats { base; values } -> ('F', base, Array.length values)
      in
      Bytes.set b !off tag;
      set_int b (!off + 1) base;
      set_int b (!off + 9) n;
      let values_at = !off + 17 in
      (match init with
      | Program.Words { values; _ } ->
          for i = 0 to n - 1 do
            set_int b (values_at + (8 * i)) values.(i)
          done
      | Program.Floats { values; _ } ->
          for i = 0 to n - 1 do
            Bytes.set_int64_le b (values_at + (8 * i)) (Int64.bits_of_float values.(i))
          done);
      off := values_at + (8 * n))
    p.data

(* The job's own fields, the tail of its image. *)
let fields t =
  let cfg = Marshal.to_string t.cfg [] in
  let b = Buffer.create (String.length cfg + 64) in
  let int v = Buffer.add_int64_le b (Int64.of_int v) in
  int (String.length Revision.stamp);
  Buffer.add_string b Revision.stamp;
  int (String.length cfg);
  Buffer.add_string b cfg;
  Buffer.add_char b (if t.check then '\001' else '\000');
  Buffer.add_char b (if t.verdicts then '\001' else '\000');
  int t.cycle_limit;
  Buffer.contents b

(* Programs keyed by identity: a batch shares a program between jobs by
   pointer, and structural equality would compare whole images.
   [Hashtbl.hash] reads only a bounded prefix, so programs that differ
   late share a bucket and [==] tells them apart. *)
module Programs = Hashtbl.Make (struct
  type t = Program.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let fingerprints jobs =
  let tails = Array.map fields jobs in
  let room = Array.fold_left (fun acc s -> max acc (String.length s)) 0 tails in
  let images = Programs.create 16 in
  Array.mapi
    (fun i t ->
      let image, len =
        match Programs.find_opt images t.program with
        | Some image -> image
        | None ->
            let len = program_length t.program in
            let b = Bytes.create (len + room) in
            write_program b t.program;
            Programs.add images t.program (b, len);
            (b, len)
      in
      let tail = tails.(i) in
      Bytes.blit_string tail 0 image len (String.length tail);
      Digest.to_hex (Digest.subbytes image 0 (len + String.length tail)))
    jobs

let fingerprint t = (fingerprints [| t |]).(0)

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

(* The fingerprint is two MD5s over binary images of exactly what
   determines the simulation's output. The program's digest covers what
   [Program.load] writes; integers are 8-byte little-endian, code words
   and data values the 4-byte words that load:

     text_base entry n_code word*n_code n_segments
     { tag base n_values word*n_values }*   tag 'W': v land 0xFFFFFFFF
                                                'F': single-precision bits

   The job's key is the MD5 of that 16-byte digest followed by the job's
   own fields:

     stamp_len stamp cfg_len cfg check verdicts cycle_limit

   So what [Program.load] drops does not move the key: labels, symbols
   and the bits of a value above its loaded word. The segments' layout
   does, and the tag keeps [Words] and [Floats] with the same bits
   apart. [Config.t] is a closed tree of scalars and immutable
   records, so its marshalled bytes are a canonical encoding. Every
   variable-length field carries its length, so no two jobs write the
   same image.

   A batch hashes each program once and each job's 16 + fields bytes on
   top. No digest outlives the call: [Program.t]'s arrays are mutable,
   so a digest kept across batches could go stale and file an outcome
   under the wrong key. *)

let program_length (p : Program.t) =
  List.fold_left
    (fun acc -> function
      | Program.Words { values; _ } -> acc + 17 + (4 * Array.length values)
      | Program.Floats { values; _ } -> acc + 17 + (4 * Array.length values))
    (32 + (4 * Array.length p.code))
    p.data

let set_int b off v = Bytes.set_int64_le b off (Int64.of_int v)

let program_digest (p : Program.t) =
  let b = Bytes.create (program_length p) in
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
            Bytes.set_int32_le b (values_at + (4 * i)) (Int32.of_int values.(i))
          done
      | Program.Floats { values; _ } ->
          for i = 0 to n - 1 do
            Bytes.set_int32_le b (values_at + (4 * i)) (Int32.bits_of_float values.(i))
          done);
      off := values_at + (4 * n))
    p.data;
  Digest.bytes b

(* The key of job [t], whose program's digest is [digest]. *)
let key digest t =
  let cfg = Marshal.to_string t.cfg [] in
  let b = Buffer.create (String.length cfg + 80) in
  let int v = Buffer.add_int64_le b (Int64.of_int v) in
  Buffer.add_string b digest;
  int (String.length Revision.stamp);
  Buffer.add_string b Revision.stamp;
  int (String.length cfg);
  Buffer.add_string b cfg;
  Buffer.add_char b (if t.check then '\001' else '\000');
  Buffer.add_char b (if t.verdicts then '\001' else '\000');
  int t.cycle_limit;
  Digest.to_hex (Digest.string (Buffer.contents b))

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
  let digests = Programs.create 16 in
  Array.map
    (fun t ->
      let digest =
        match Programs.find_opt digests t.program with
        | Some d -> d
        | None ->
            let d = program_digest t.program in
            Programs.add digests t.program d;
            d
      in
      key digest t)
    jobs

let fingerprint t = (fingerprints [| t |]).(0)

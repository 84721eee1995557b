open Riq_util

type t = { table : Bytes.t; mask : int; hmask : int; mutable history : int }

let create ~entries ~history_bits =
  if not (Bits.is_pow2 entries) then invalid_arg "Gshare.create: entries must be a power of two";
  if history_bits < 1 || history_bits > 24 then invalid_arg "Gshare.create: history bits";
  {
    table = Bytes.make entries '\001';
    mask = entries - 1;
    hmask = (1 lsl history_bits) - 1;
    history = 0;
  }

let index t ~pc = ((pc lsr 2) lxor t.history) land t.mask
let predict t ~pc = Char.code (Bytes.get t.table (index t ~pc)) >= 2

let update t ~pc ~taken =
  let i = index t ~pc in
  let c = Char.code (Bytes.get t.table i) in
  let c' = if taken then min 3 (c + 1) else max 0 (c - 1) in
  Bytes.set t.table i (Char.chr c');
  t.history <- ((t.history lsl 1) lor (if taken then 1 else 0)) land t.hmask

open Riq_util

type t = { table : Bytes.t; mask : int }

let create entries =
  if not (Bits.is_pow2 entries) then invalid_arg "Bimod.create: entries must be a power of two";
  { table = Bytes.make entries '\001'; mask = entries - 1 }

let entries t = Bytes.length t.table
let index t ~pc = (pc lsr 2) land t.mask
let counter t ~pc = Char.code (Bytes.get t.table (index t ~pc))
let predict t ~pc = counter t ~pc >= 2

let update t ~pc ~taken =
  let i = index t ~pc in
  let c = Char.code (Bytes.get t.table i) in
  let c' = if taken then min 3 (c + 1) else max 0 (c - 1) in
  Bytes.set t.table i (Char.chr c')

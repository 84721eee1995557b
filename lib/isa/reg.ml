type t = int

let count = 64

let r n =
  if n < 0 || n > 31 then invalid_arg "Reg.r";
  n

let f n =
  if n < 0 || n > 31 then invalid_arg "Reg.f";
  32 + n

let zero = 0
let ra = 31
let sp = 29
let is_fp t = t >= 32
let index t = if is_fp t then t - 32 else t

let to_string t =
  if t < 0 || t >= count then invalid_arg "Reg.to_string";
  Printf.sprintf "%c%d" (if is_fp t then 'f' else 'r') (index t)

let of_string s =
  let len = String.length s in
  if len < 2 then None
  else
    match (s.[0], int_of_string_opt (String.sub s 1 (len - 1))) with
    | 'r', Some n when n >= 0 && n <= 31 -> Some (r n)
    | 'f', Some n when n >= 0 && n <= 31 -> Some (f n)
    | _, _ -> None

type t = {
  stack : int array;
  size : int;
  mutable tos : int; (* index of the next free slot, grows upward mod size *)
  mutable live : int;
  mutable n_push : int;
  mutable n_pop : int;
}

let create size =
  if size <= 0 then invalid_arg "Ras.create: size must be positive";
  { stack = Array.make size 0; size; tos = 0; live = 0; n_push = 0; n_pop = 0 }

let push t v =
  t.n_push <- t.n_push + 1;
  t.stack.(t.tos) <- v;
  t.tos <- (t.tos + 1) mod t.size;
  t.live <- min t.size (t.live + 1)

let pop t =
  t.n_pop <- t.n_pop + 1;
  if t.live = 0 then None
  else begin
    t.tos <- (t.tos + t.size - 1) mod t.size;
    t.live <- t.live - 1;
    Some t.stack.(t.tos)
  end

(* Pack tos and live into one int so a checkpoint is a plain immediate. *)
let checkpoint t = (t.tos lsl 16) lor t.live

let restore t ck =
  t.tos <- (ck lsr 16) mod t.size;
  t.live <- min t.size (ck land 0xFFFF)

let depth t = t.live
let pushes t = t.n_push
let pops t = t.n_pop

type t = {
  entries : int array;
  valid : bool array;
  size : int;
  mutable next : int; (* FIFO insertion cursor *)
}

let create size =
  if size < 0 then invalid_arg "Nblt.create";
  {
    entries = Array.make (max size 1) 0;
    valid = Array.make (max size 1) false;
    size;
    next = 0;
  }

let capacity t = t.size

let mem t pc =
  let found = ref false in
  for i = 0 to t.size - 1 do
    if t.valid.(i) && t.entries.(i) = pc then found := true
  done;
  !found

let insert t pc =
  if t.size = 0 || mem t pc then false
  else begin
    t.entries.(t.next) <- pc;
    t.valid.(t.next) <- true;
    t.next <- (t.next + 1) mod t.size;
    true
  end

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n

let quantile q a =
  if q < 0. || q > 1. || Float.is_nan q then invalid_arg "Stats.quantile: q outside [0, 1]";
  let n = Array.length a in
  if n = 0 then 0.
  else if n = 1 then a.(0)
  else begin
    let sorted = Array.copy a in
    Array.sort compare sorted;
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let percent part whole = if whole = 0. then 0. else 100. *. part /. whole
let ratio a b = if b = 0. then 0. else a /. b

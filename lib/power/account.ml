type t = {
  model : Model.t;
  act : float array;
  acc : float array; (* cumulative energy per component *)
  (* Per-access / per-idle energies indexed by [Component.index], copied
     out of the model so [tick] is a straight-line array loop. *)
  ea : float array;
  ia : float array;
  mutable n_cycles : int;
}

let create model =
  {
    model;
    act = Array.make Component.count 0.;
    acc = Array.make Component.count 0.;
    ea = Array.init Component.count (fun i -> Model.energy model (Component.of_index i));
    ia = Array.init Component.count (fun i -> Model.idle model (Component.of_index i));
    n_cycles = 0;
  }

let add t c n = t.act.(Component.index c) <- t.act.(Component.index c) +. n

let clock_idx = Component.index Component.Clock

let tick t =
  t.n_cycles <- t.n_cycles + 1;
  let act = t.act and acc = t.acc and ea = t.ea and ia = t.ia in
  for i = 0 to Component.count - 1 do
    let a = Array.unsafe_get act i in
    if a > 0. then begin
      Array.unsafe_set acc i (Array.unsafe_get acc i +. (a *. Array.unsafe_get ea i));
      Array.unsafe_set act i 0.
    end
    else Array.unsafe_set acc i (Array.unsafe_get acc i +. Array.unsafe_get ia i)
  done;
  t.acc.(clock_idx) <- t.acc.(clock_idx) +. Model.clock_per_cycle t.model

let cycles t = t.n_cycles
let total_energy t = Array.fold_left ( +. ) 0. t.acc
let energy_of t c = t.acc.(Component.index c)

let group_energy t g =
  let sum = ref 0. in
  Array.iter
    (fun c -> if Component.group c = g then sum := !sum +. energy_of t c)
    Component.all;
  !sum

let avg_power t = if t.n_cycles = 0 then 0. else total_energy t /. float_of_int t.n_cycles

let group_power t g =
  if t.n_cycles = 0 then 0. else group_energy t g /. float_of_int t.n_cycles

let breakdown t =
  let total = total_energy t in
  let entries =
    Array.map
      (fun c -> (c, if total = 0. then 0. else energy_of t c /. total))
      Component.all
  in
  Array.sort (fun (_, a) (_, b) -> compare b a) entries;
  entries

type t = { idom : int array; depth : int array }

let compute (cfg : Cfg.t) =
  let n = Cfg.n_blocks cfg in
  let rpo = Cfg.reverse_postorder cfg in
  let reach = Cfg.reachable cfg in
  (* Position of each block in reverse postorder, for the intersection
     walk. Unreachable blocks keep position max_int and are skipped. *)
  let pos = Array.make n max_int in
  Array.iteri (fun i b -> if reach.(b) then pos.(b) <- i) rpo;
  let idom = Array.make n (-1) in
  let entry = cfg.Cfg.entry in
  idom.(entry) <- entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while pos.(!a) > pos.(!b) do
        a := idom.(!a)
      done;
      while pos.(!b) > pos.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if reach.(b) && b <> entry then begin
          let preds =
            List.filter (fun p -> reach.(p) && idom.(p) >= 0) (Cfg.block cfg b).Cfg.b_preds
          in
          match preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left (fun acc p -> intersect acc p) first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  let depth = Array.make n (-1) in
  depth.(entry) <- 0;
  (* Blocks in RPO see their idom first, so one pass suffices. *)
  Array.iter
    (fun b ->
      if reach.(b) && b <> entry && idom.(b) >= 0 then depth.(b) <- depth.(idom.(b)) + 1)
    rpo;
  { idom; depth }

let idom t b =
  if t.idom.(b) < 0 || t.idom.(b) = b then None else Some t.idom.(b)

let dominates t a b =
  if t.depth.(b) < 0 then a = b
  else
    let rec walk x = x = a || (t.idom.(x) <> x && walk t.idom.(x)) in
    walk b

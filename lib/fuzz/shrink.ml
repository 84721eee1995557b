open Prog

let remove i l = List.filteri (fun j _ -> j <> i) l
let replace i x l = List.mapi (fun j y -> if j = i then x else y) l

let splice i xs l =
  List.concat (List.mapi (fun j y -> if j = i then xs else [ y ]) l)

(* A loop unwrapped into its body loses its top-level breaks; breaks of
   nested loops stay valid. *)
let strip_breaks items = List.filter (function Break _ -> false | _ -> true) items

(* Every program obtainable by one structural edit, coarse edits first:
   deleting a whole item, unwrapping a loop or guard into its body,
   reducing a trip count, then the same edits one level deeper. *)
let rec list_variants items =
  let deletions = List.mapi (fun i _ -> remove i items) items in
  let unwraps =
    List.concat
      (List.mapi
         (fun i it ->
           match it with
           | Loop l -> [ splice i (strip_breaks l.body) items ]
           | Guard g -> [ splice i g.g_body items ]
           | Op _ | Call _ | Break _ | Ijump -> [])
         items)
  in
  let rewrites =
    List.concat
      (List.mapi
         (fun i it -> List.map (fun it' -> replace i it' items) (item_variants it))
         items)
  in
  deletions @ unwraps @ rewrites

and item_variants = function
  | Loop l ->
      let trips =
        (if l.trip > 2 then [ Loop { l with trip = l.trip / 2 } ] else [])
        @ if l.trip > 1 then [ Loop { l with trip = 1 } ] else []
      in
      trips @ List.map (fun b -> Loop { l with body = b }) (list_variants l.body)
  | Guard g -> List.map (fun b -> Guard { g with g_body = b }) (list_variants g.g_body)
  | Op _ | Call _ | Break _ | Ijump -> []

let variants (p : t) =
  List.map (fun m -> { p with main = m }) (list_variants p.main)
  @ List.concat
      (List.mapi
         (fun i pr ->
           List.map
             (fun b -> { p with procs = replace i { pr with p_body = b } p.procs })
             (list_variants pr.p_body))
         p.procs)

(* Calls to [still_fails] per shrink. *)
let budget = 400

let minimize ~still_fails prog =
  let checks = ref 0 in
  let fails p =
    if !checks >= budget then false
    else (
      incr checks;
      still_fails p)
  in
  (* Greedy with restart: take the first variant that still fails and
     re-enumerate from it, so coarse deletions get first shot at every
     intermediate program. *)
  let rec go p =
    match List.find_opt fails (variants p) with
    | Some v when !checks < budget -> go v
    | Some v -> v
    | None -> p
  in
  go prog

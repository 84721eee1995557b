type loop = {
  l_header : int;
  l_back_edges : int list;
  l_blocks : int list;
  l_depth : int;
  l_parent : int option;
  l_children : int list;
}

type t = {
  cfg : Cfg.t;
  dom : Dominators.t;
  loops : loop array;
  irreducible : (int * int) list;
}

module IntSet = Set.Make (Int)

(* Retreating edges = edges whose target is an ancestor in the DFS tree
   (equivalently, for our purposes: target appears no later in reverse
   postorder). A retreating edge is a genuine back edge iff its target
   dominates its source. *)
let detect cfg =
  let dom = Dominators.compute cfg in
  let reach = Cfg.reachable cfg in
  let n = Cfg.n_blocks cfg in
  let rpo = Cfg.reverse_postorder cfg in
  let pos = Array.make n max_int in
  Array.iteri (fun i b -> pos.(b) <- i) rpo;
  let back = ref [] and irreducible = ref [] in
  for b = 0 to n - 1 do
    if reach.(b) then
      List.iter
        (fun s ->
          if pos.(s) <= pos.(b) then
            if Dominators.dominates dom s b then back := (b, s) :: !back
            else irreducible := (b, s) :: !irreducible)
        (Cfg.block cfg b).Cfg.b_succs
  done;
  (* Natural loop of each back edge; merge back edges sharing a header. *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (src, header) ->
      let body =
        match Hashtbl.find_opt by_header header with
        | Some (srcs, body) ->
            Hashtbl.replace by_header header (src :: srcs, body);
            body
      | None ->
            let body = ref (IntSet.singleton header) in
            Hashtbl.replace by_header header ([ src ], body);
            body
      in
      (* Walk predecessors backward from the edge source. *)
      let stack = ref [] in
      if not (IntSet.mem src !body) then begin
        body := IntSet.add src !body;
        stack := [ src ]
      end;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | x :: rest ->
            stack := rest;
            List.iter
              (fun p ->
                if reach.(p) && not (IntSet.mem p !body) then begin
                  body := IntSet.add p !body;
                  stack := p :: !stack
                end)
              (Cfg.block cfg x).Cfg.b_preds
      done)
    !back;
  let raw =
    Hashtbl.fold
      (fun header (srcs, body) acc -> (header, List.sort compare srcs, !body) :: acc)
      by_header []
  in
  (* Nesting: loop A contains loop B iff A's body contains B's header and
     the loops differ. Sort outermost-first by body size (a containing
     loop is strictly larger). *)
  let raw =
    List.sort
      (fun (_, _, b1) (_, _, b2) ->
        compare (IntSet.cardinal b2, 0) (IntSet.cardinal b1, 0))
      raw
  in
  let arr = Array.of_list raw in
  let nl = Array.length arr in
  let parent = Array.make nl None in
  for i = 0 to nl - 1 do
    let hdr_i, _, body_i = arr.(i) in
    ignore body_i;
    (* Smallest enclosing loop: the last (smallest) loop before... scan all
       larger loops, keep the smallest body containing our header. *)
    let best = ref None in
    for j = 0 to nl - 1 do
      if j <> i then begin
        let hdr_j, _, body_j = arr.(j) in
        if hdr_j <> hdr_i && IntSet.mem hdr_i body_j then
          match !best with
          | None -> best := Some j
          | Some k ->
              let _, _, body_k = arr.(k) in
              if IntSet.cardinal body_j < IntSet.cardinal body_k then best := Some j
      end
    done;
    parent.(i) <- !best
  done;
  let depth = Array.make nl 0 in
  let rec depth_of i =
    if depth.(i) > 0 then depth.(i)
    else begin
      let d = match parent.(i) with None -> 1 | Some p -> depth_of p + 1 in
      depth.(i) <- d;
      d
    end
  in
  for i = 0 to nl - 1 do
    ignore (depth_of i)
  done;
  let children = Array.make nl [] in
  for i = nl - 1 downto 0 do
    match parent.(i) with
    | Some p -> children.(p) <- i :: children.(p)
    | None -> ()
  done;
  let loops =
    Array.mapi
      (fun i (header, srcs, body) ->
        {
          l_header = header;
          l_back_edges = srcs;
          l_blocks = IntSet.elements body;
          l_depth = depth.(i);
          l_parent = parent.(i);
          l_children = children.(i);
        })
      arr
  in
  { cfg; dom; loops; irreducible = List.rev !irreducible }

let loop_of_header t h =
  Array.fold_left
    (fun acc l -> match acc with Some _ -> acc | None -> if l.l_header = h then Some l else None)
    None t.loops

let innermost _t l = l.l_children = []

let containing t b =
  let idx = ref [] in
  Array.iteri (fun i l -> if List.mem b l.l_blocks then idx := i :: !idx) t.loops;
  List.sort
    (fun i j -> compare t.loops.(i).l_depth t.loops.(j).l_depth)
    (List.rev !idx)

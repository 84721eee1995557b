type graph = {
  g_nodes : int;
  g_entry : int;
  g_succs : int list array;
  g_preds : int list array;
  g_order : int array;
}

let of_cfg (cfg : Cfg.t) =
  let n = Array.length cfg.Cfg.blocks in
  {
    g_nodes = n;
    g_entry = (if n = 0 then -1 else cfg.Cfg.entry);
    g_succs = Array.map (fun b -> b.Cfg.b_succs) cfg.Cfg.blocks;
    g_preds = Array.map (fun b -> b.Cfg.b_preds) cfg.Cfg.blocks;
    g_order = Cfg.reverse_postorder cfg;
  }

module type LATTICE = sig
  type fact

  val name : string
  val bottom : fact
  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
  val widen : fact -> fact -> fact
end

exception Non_monotone of { lattice : string; node : int }
exception Unstable of { lattice : string; node : int }

module Make (L : LATTICE) = struct
  type result = { input : L.fact array; output : L.fact array }

  let leq a b = L.equal (L.join a b) b

  (* A node's input is joined with [widen] instead of [join] once it has
     been recomputed this many times. *)
  let widen_after = 16

  let solve ?(boundary = L.bottom) ~transfer g =
    let n = g.g_nodes in
    let input = Array.make n L.bottom in
    let output = Array.make n L.bottom in
    (* Boundary nodes receive the boundary fact: the designated entry plus
       every node with no incoming edge, so unreachable islands still get
       a defined, conservative input. *)
    let from_preds node =
      let f =
        List.fold_left (fun acc p -> L.join acc output.(p)) L.bottom g.g_preds.(node)
      in
      if node = g.g_entry || g.g_preds.(node) = [] then L.join boundary f else f
    in
    if n > 0 then begin
      let visits = Array.make n 0 in
      let in_list = Array.make n false in
      let queue = Queue.create () in
      let enqueue node =
        if not in_list.(node) then begin
          in_list.(node) <- true;
          Queue.push node queue
        end
      in
      let order = if Array.length g.g_order = n then g.g_order else Array.init n Fun.id in
      Array.iter enqueue order;
      for node = 0 to n - 1 do
        enqueue node
      done;
      while not (Queue.is_empty queue) do
        let node = Queue.pop queue in
        in_list.(node) <- false;
        visits.(node) <- visits.(node) + 1;
        let f = from_preds node in
        let inp =
          if visits.(node) > widen_after then L.widen input.(node) f
          else L.join input.(node) f
        in
        let out = transfer node inp in
        if not (leq output.(node) out) then
          raise (Non_monotone { lattice = L.name; node });
        if not (L.equal inp input.(node)) || not (L.equal out output.(node))
        then begin
          input.(node) <- inp;
          output.(node) <- out;
          List.iter enqueue g.g_succs.(node)
        end
      done;
      (* Fixpoint self-check: one more full sweep must change nothing. *)
      for node = 0 to n - 1 do
        if not (leq (from_preds node) input.(node))
           || not (L.equal (transfer node input.(node)) output.(node))
        then raise (Unstable { lattice = L.name; node })
      done
    end;
    { input; output }

  let solve_cfg ?boundary ~transfer cfg = solve ?boundary ~transfer (of_cfg cfg)
end

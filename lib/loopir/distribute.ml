(* Loop distribution over the loop-nest IR. See the interface for the
   dependence-test rules. *)

type edge_kind = No_dep | Forward | Backward | Both

(* ---- access-set computation with procedure resolution ---- *)

let rec resolve_accesses procs stmt =
  let rs, ra = Ir.reads_of_stmt stmt in
  let ws, wa = Ir.writes_of_stmt stmt in
  let calls = calls_of stmt in
  List.fold_left
    (fun (rs, ra, ws, wa) name ->
      match List.assoc_opt name procs with
      | None -> (rs, ra, ws, wa)
      | Some body ->
          List.fold_left
            (fun (rs, ra, ws, wa) s ->
              let rs', ra', ws', wa' = resolve_accesses procs s in
              (rs' @ rs, ra' @ ra, ws' @ ws, wa' @ wa))
            (rs, ra, ws, wa) body)
    (rs, ra, ws, wa) calls

and calls_of stmt =
  match stmt with
  | Ir.Scall name -> [ name ]
  | Sfor { body; _ } -> List.concat_map calls_of body
  | Sif (_, a, b) -> List.concat_map calls_of a @ List.concat_map calls_of b
  | Sfassign _ | Siassign _ | Sfstore _ | Sistore _ -> []

(* ---- subscript analysis ---- *)

(* Classify one subscript dimension with respect to the loop variable. *)
type dim_form =
  | Affine of int (* loop_var + constant *)
  | Const of int
  | Invariant of Ir.iexpr (* does not mention the loop variable *)
  | Complex

let rec mentions v (e : Ir.iexpr) =
  match e with
  | Ir.Iconst _ -> false
  | Ivar x -> x = v
  | Iadd (a, b) | Isub (a, b) | Imul (a, b) -> mentions v a || mentions v b
  | Iload (_, subs) -> List.exists (mentions v) subs

let dim_form v (e : Ir.iexpr) =
  match e with
  | Ir.Iconst c -> Const c
  | Ivar x when x = v -> Affine 0
  | Iadd (Ivar x, Iconst c) when x = v -> Affine c
  | Iadd (Iconst c, Ivar x) when x = v -> Affine c
  | Isub (Ivar x, Iconst c) when x = v -> Affine (-c)
  | e when not (mentions v e) -> Invariant e
  | _ -> Complex

(* Dependence distance between a write access and another access of the
   same array: d = (accessor iteration) - (writer iteration), or the
   special cases below. *)
type distance = Dist of int | Any | Never | Unknown

let access_distance v (w : Ir.access) (o : Ir.access) =
  if w.Ir.arr <> o.Ir.arr then Never
  else if List.length w.Ir.subs <> List.length o.Ir.subs then Unknown
  else begin
    let rec go dist subs =
      match subs with
      | [] -> dist
      | (sw, so) :: rest -> (
          match (dim_form v sw, dim_form v so, dist) with
          | _, _, Never -> Never
          | Affine cw, Affine co, Any -> go (Dist (cw - co)) rest
          | Affine cw, Affine co, Dist d ->
              if cw - co = d then go dist rest else Never
          | Const a, Const b, _ -> if a = b then go dist rest else Never
          | Invariant a, Invariant b, _ ->
              (* Syntactic equality keeps the constraint; different
                 expressions may or may not alias. *)
              if a = b then go dist rest else Unknown
          | Affine _, Const _, _
          | Const _, Affine _, _
          | Affine _, Invariant _, _
          | Invariant _, Affine _, _
          | Const _, Invariant _, _
          | Invariant _, Const _, _
          | Complex, _, _
          | _, Complex, _
          | _, _, Unknown ->
              Unknown)
    in
    go Any (List.combine w.Ir.subs o.Ir.subs)
  end

(* ---- pairwise statement dependence ---- *)

let loop_vars_of_program (p : Ir.program) =
  let rec of_stmt acc = function
    | Ir.Sfor { var; body; _ } -> List.fold_left of_stmt (var :: acc) body
    | Sif (_, a, b) -> List.fold_left of_stmt (List.fold_left of_stmt acc a) b
    | Sfassign _ | Siassign _ | Sfstore _ | Sistore _ | Scall _ -> acc
  in
  let acc = List.fold_left of_stmt [] p.Ir.main in
  let acc =
    List.fold_left (fun acc (_, body) -> List.fold_left of_stmt acc body) acc p.Ir.procs
  in
  List.sort_uniq compare acc

let statement_dependence (p : Ir.program) ~loop_var sa sb =
  let index_vars = loop_vars_of_program p in
  let is_data v = not (List.mem v index_vars) in
  let rs_a, ra_a, ws_a, wa_a = resolve_accesses p.Ir.procs sa in
  let rs_b, ra_b, ws_b, wa_b = resolve_accesses p.Ir.procs sb in
  let forward = ref false and backward = ref false in
  (* Scalars: any shared name with a write on either side forces a cycle
     (no scalar expansion is performed). *)
  let scalar_conflict () =
    let touches names v = List.mem v names in
    List.exists (fun v -> is_data v && (touches rs_b v || touches ws_b v)) ws_a
    || List.exists (fun v -> is_data v && (touches rs_a v || touches ws_a v)) ws_b
  in
  if scalar_conflict () then Both
  else begin
    (* Arrays: writer W vs accessor O; a_first is true when the writer is
       the textually-first statement. *)
    let consider ~writer_first (w : Ir.access) (o : Ir.access) =
      match access_distance loop_var w o with
      | Never -> ()
      | Dist d ->
          if d > 0 then if writer_first then forward := true else backward := true
          else if d < 0 then if writer_first then backward := true else forward := true
          else forward := true (* loop-independent: textual order A before B *)
      | Any | Unknown ->
          forward := true;
          backward := true
    in
    List.iter (fun w -> List.iter (fun o -> consider ~writer_first:true w o) (ra_b @ wa_b)) wa_a;
    List.iter (fun w -> List.iter (fun o -> consider ~writer_first:false w o) ra_a) wa_b;
    match (!forward, !backward) with
    | false, false -> No_dep
    | true, false -> Forward
    | false, true -> Backward
    | true, true -> Both
  end

(* ---- strongly connected components (Tarjan) over body statements ---- *)

let sccs n edges =
  (* edges: adjacency list array; returns components in topological order. *)
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let comps = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      edges.(v);
    if lowlink.(v) = index.(v) then begin
      let comp = ref [] in
      let continue_ = ref true in
      while !continue_ do
        match !stack with
        | [] -> continue_ := false
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp := w :: !comp;
            if w = v then continue_ := false
      done;
      comps := !comp :: !comps
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  (* Tarjan emits components in reverse topological order of the condensed
     graph. *)
  !comps

let rec distribute_stmt (p : Ir.program) stmt =
  match stmt with
  | Ir.Sfor { var; lo; hi; body } -> (
      (* Innermost-first. *)
      let body = List.concat_map (distribute_stmt p) body in
      match body with
      | [] | [ _ ] -> [ Ir.Sfor { var; lo; hi; body } ]
      | _ ->
          let stmts = Array.of_list body in
          let n = Array.length stmts in
          let edges = Array.make n [] in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              match statement_dependence p ~loop_var:var stmts.(i) stmts.(j) with
              | No_dep -> ()
              | Forward -> edges.(i) <- j :: edges.(i)
              | Backward -> edges.(j) <- i :: edges.(j)
              | Both ->
                  edges.(i) <- j :: edges.(i);
                  edges.(j) <- i :: edges.(j)
            done
          done;
          let comps = sccs n edges in
          (* Each component becomes one loop; statements inside keep their
             original order. *)
          List.map
            (fun comp ->
              let comp = List.sort compare comp in
              Ir.Sfor { var; lo; hi; body = List.map (fun i -> stmts.(i)) comp })
            comps)
  | Sif (c, a, b) ->
      [ Ir.Sif (c, List.concat_map (distribute_stmt p) a, List.concat_map (distribute_stmt p) b) ]
  | Sfassign _ | Siassign _ | Sfstore _ | Sistore _ | Scall _ -> [ stmt ]

let distribute_program p =
  {
    p with
    Ir.main = List.concat_map (distribute_stmt p) p.Ir.main;
    procs = List.map (fun (name, body) -> (name, List.concat_map (distribute_stmt p) body)) p.Ir.procs;
  }

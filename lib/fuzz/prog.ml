type item =
  | Op of string
  | Guard of guard
  | Loop of loop
  | Call of int
  | Break of int
  | Ijump

and guard = { g_cond : string; g_body : item list }
and loop = { trip : int; body : item list }

type proc = { p_name : string; p_body : item list }

type t = {
  seed : int;
  main : item list;
  procs : proc list;
  data_i : int array;
  data_f : float array;
}

(* Which procedures does the program actually call? Calls only occur in
   [main] (procedures are leaves), but walk guards and loops to be safe. *)
let called_procs t =
  let called = Array.make (List.length t.procs) false in
  let rec walk items =
    List.iter
      (function
        | Call i -> if i < Array.length called then called.(i) <- true
        | Loop l -> walk l.body
        | Guard g -> walk g.g_body
        | Op _ | Break _ | Ijump -> ())
      items
  in
  walk t.main;
  called

let render t =
  let buf = Buffer.create 4096 in
  let fresh = ref 0 in
  let label stem =
    incr fresh;
    Printf.sprintf ".L%s%d" stem !fresh
  in
  let line s = Buffer.add_string buf ("    " ^ s ^ "\n") in
  let deflabel l = Buffer.add_string buf (l ^ ":\n") in
  (* depth = number of enclosing loops (counter register r16+depth while
     inside); [exit_label] is the innermost loop's exit. [counter_base]
     distinguishes main loops (r16..) from procedure loops (r20). *)
  let rec emit_items ~counter_base ~depth ~exit_label items =
    List.iter (emit_item ~counter_base ~depth ~exit_label) items
  and emit_item ~counter_base ~depth ~exit_label = function
    | Op s ->
        String.split_on_char '\n' s |> List.iter (fun l -> if l <> "" then line l)
    | Guard g ->
        let l = label "g" in
        line (g.g_cond ^ ", " ^ l);
        emit_items ~counter_base ~depth ~exit_label g.g_body;
        deflabel l
    | Loop lp ->
        let rc = Printf.sprintf "r%d" (counter_base + depth) in
        let head = label "h" in
        let exit = label "x" in
        line (Printf.sprintf "li %s, %d" rc lp.trip);
        deflabel head;
        emit_items ~counter_base ~depth:(depth + 1) ~exit_label:(Some (rc, exit)) lp.body;
        line (Printf.sprintf "addi %s, %s, -1" rc rc);
        line (Printf.sprintf "bgtz %s, %s" rc head);
        deflabel exit
    | Call i -> line (Printf.sprintf "jal p%d" i)
    | Break k -> (
        match exit_label with
        | None -> () (* orphaned by an unwrap: a no-op *)
        | Some (rc, exit) ->
            line (Printf.sprintf "addi r15, %s, %d" rc (-k));
            line (Printf.sprintf "beq r15, r0, %s" exit))
    | Ijump ->
        let l = label "ij" in
        line (Printf.sprintf "la r14, %s" l);
        line "jr r14";
        deflabel l
  in
  Buffer.add_string buf (Printf.sprintf "# riq-fuzz program, seed=%d\n" t.seed);
  (* Body first, into a scratch buffer, so the prologue can set up only the
     base registers the body actually names. *)
  let body_start = Buffer.length buf in
  emit_items ~counter_base:16 ~depth:0 ~exit_label:None t.main;
  line "halt";
  let called = called_procs t in
  List.iteri
    (fun i p ->
      if called.(i) then begin
        deflabel p.p_name;
        emit_items ~counter_base:20 ~depth:0 ~exit_label:None p.p_body;
        line "jr r31"
      end)
    t.procs;
  let body = Buffer.sub buf body_start (Buffer.length buf - body_start) in
  Buffer.truncate buf body_start;
  (* Plain substring search is enough: register names are unambiguous
     ("r24" never occurs inside another token in rendered text). *)
  let contains sub =
    let n = String.length body and m = String.length sub in
    let rec go i = i + m <= n && (String.sub body i m = sub || go (i + 1)) in
    go 0
  in
  let needs_buf = contains "r24" || contains "r25" in
  let needs_fbuf = contains "r26" in
  if needs_buf then begin
    line "la r24, buf";
    line "addi r25, r24, 8"
  end;
  if needs_fbuf then line "la r26, fbuf";
  Buffer.add_string buf body;
  if needs_buf || Array.length t.data_i > 0 then begin
    Buffer.add_string buf ".word buf";
    if Array.length t.data_i = 0 then Buffer.add_string buf " 0";
    Array.iter (fun v -> Buffer.add_string buf (" " ^ string_of_int v)) t.data_i;
    Buffer.add_char buf '\n'
  end;
  if needs_fbuf || Array.length t.data_f > 0 then begin
    Buffer.add_string buf ".float fbuf";
    if Array.length t.data_f = 0 then Buffer.add_string buf " 0";
    Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %.6g" v)) t.data_f;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let to_program t = Riq_asm.Parse.program (render t)

let size_insns t =
  match to_program t with
  | Ok p -> Array.length p.Riq_asm.Program.code
  | Error _ -> 0

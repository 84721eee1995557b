type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_float b f =
  match Float.classify_float f with
  | Float.FP_nan | Float.FP_infinite -> Buffer.add_string b "null"
  | _ ->
      (* Shortest representation that round-trips a binary64. *)
      let s = Printf.sprintf "%.17g" f in
      let shorter = Printf.sprintf "%.12g" f in
      Buffer.add_string b (if float_of_string shorter = f then shorter else s)

let rec add ~indent ~level b t =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char b '\n' in
  match t with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v -> add_float b v
  | String v -> escape_string b v
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
      Buffer.add_char b '[';
      nl ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (level + 1);
          add ~indent ~level:(level + 1) b x)
        xs;
      nl ();
      pad level;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
      Buffer.add_char b '{';
      nl ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (level + 1);
          escape_string b k;
          Buffer.add_string b (if indent then ": " else ":");
          add ~indent ~level:(level + 1) b v)
        kvs;
      nl ();
      pad level;
      Buffer.add_char b '}'

let to_string ?(indent = false) t =
  let b = Buffer.create 1024 in
  add ~indent ~level:0 b t;
  if indent then Buffer.add_char b '\n';
  Buffer.contents b

let to_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string ~indent:true t))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

(* The tree's own documents nest a handful of levels deep. The cap keeps
   a hostile input of brackets from recursing without bound: refused at
   the cap, it costs a scan of [max_depth] bytes. *)
let max_depth = 512

(* Recursive-descent parser over the whole input string. Accepts exactly
   the JSON grammar (RFC 8259): no trailing commas, no comments, no bare
   NaN/Infinity — everything the emitter above produces and nothing the
   other tools in a pipeline would reject — nested at most [max_depth]
   arrays and objects deep. Numbers without a fraction or
   exponent that fit in an OCaml [int] parse as [Int], everything else as
   [Float], mirroring the emitter's split. *)
let of_string s : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail !pos (Printf.sprintf "expected %c, found %c" c c')
    | None -> fail !pos (Printf.sprintf "expected %c, found end of input" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos ("invalid literal, expected " ^ word)
  in
  (* Encode one Unicode scalar value as UTF-8 into [b]. *)
  let add_utf8 b u =
    if u < 0x80 then Buffer.add_char b (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | c -> fail !pos (Printf.sprintf "bad hex digit %c in \\u escape" c)
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string";
      match s.[!pos] with
      | '"' ->
          advance ();
          Buffer.contents b
      | '\\' ->
          advance ();
          (if !pos >= n then fail !pos "unterminated escape";
           match s.[!pos] with
           | '"' -> Buffer.add_char b '"'; advance ()
           | '\\' -> Buffer.add_char b '\\'; advance ()
           | '/' -> Buffer.add_char b '/'; advance ()
           | 'b' -> Buffer.add_char b '\b'; advance ()
           | 'f' -> Buffer.add_char b '\012'; advance ()
           | 'n' -> Buffer.add_char b '\n'; advance ()
           | 'r' -> Buffer.add_char b '\r'; advance ()
           | 't' -> Buffer.add_char b '\t'; advance ()
           | 'u' ->
               advance ();
               let u = hex4 () in
               (* Surrogate pair: a high surrogate must be followed by an
                  escaped low surrogate; lone surrogates are rejected. *)
               if u >= 0xD800 && u <= 0xDBFF then begin
                 if
                   !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                 then begin
                   pos := !pos + 2;
                   let lo = hex4 () in
                   if lo < 0xDC00 || lo > 0xDFFF then
                     fail !pos "invalid low surrogate"
                   else
                     add_utf8 b
                       (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
                 end
                 else fail !pos "lone high surrogate"
               end
               else if u >= 0xDC00 && u <= 0xDFFF then
                 fail !pos "lone low surrogate"
               else add_utf8 b u
           | c -> fail !pos (Printf.sprintf "bad escape \\%c" c));
          go ()
      | c when Char.code c < 0x20 ->
          fail !pos "unescaped control character in string"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then fail !pos "expected digit"
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' ->
        advance ();
        (* leading zeros are not allowed *)
        (match peek () with
        | Some ('0' .. '9') -> fail !pos "leading zero in number"
        | _ -> ())
    | Some ('1' .. '9') -> digits ()
    | _ -> fail !pos "expected digit");
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !integral then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text) (* out of int range *)
    else Float (float_of_string text)
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some ('[' | '{') when depth = max_depth ->
        fail !pos (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := parse_value (depth + 1) :: !items;
                more ()
            | Some ']' -> advance ()
            | _ -> fail !pos "expected , or ] in array"
          in
          more ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let items = ref [ member () ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := member () :: !items;
                more ()
            | Some '}' -> advance ()
            | _ -> fail !pos "expected , or } in object"
          in
          more ();
          Obj (List.rev !items)
        end
    | Some c -> fail !pos (Printf.sprintf "unexpected character %c" c)
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail !pos "trailing characters after JSON value"
    else Ok v
  with Parse_error (p, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

let of_string_exn s =
  match of_string s with Ok v -> v | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function List xs -> Some xs | _ -> None

open Riq_util

type phase = Begin | End | Instant | Counter | Meta | Complete

type arg = Int of int | Float of float | Str of string

type event = {
  ts : int;
  ph : phase;
  name : string;
  cat : string;
  pid : int;
  tid : int;
  dur : int; (* Complete events only *)
  args : (string * arg) list;
}

type ring_state = {
  buf : event option array;
  mutable next : int; (* insertion cursor *)
  mutable stored : int; (* <= capacity *)
}

type stream_state = { oc : out_channel; mutable first : bool; mutable closed : bool }

type sink = Null | Ring of ring_state | Stream of stream_state

type t = {
  sink : sink;
  enabled : bool;
  mutable default_pid : int;
  mutable n_recorded : int;
  mutable n_dropped : int;
  by_name : (string, int) Hashtbl.t;
}

let phase_code = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Counter -> "C"
  | Meta -> "M"
  | Complete -> "X"

let arg_json = function
  | Int v -> Json.Int v
  | Float v -> Json.Float v
  | Str v -> Json.String v

let event_json e =
  let base =
    [
      ("name", Json.String e.name);
      ("cat", Json.String e.cat);
      ("ph", Json.String (phase_code e.ph));
      ("ts", Json.Int e.ts);
      ("pid", Json.Int e.pid);
      ("tid", Json.Int e.tid);
    ]
    @ (match e.ph with Complete -> [ ("dur", Json.Int e.dur) ] | _ -> [])
  in
  let args =
    match (e.args, e.ph) with
    | [], Instant ->
        (* Perfetto requires a scope on bare instants. *)
        [ ("s", Json.String "t") ]
    | [], _ -> []
    | args, Instant ->
        [ ("s", Json.String "t"); ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)) ]
    | args, _ -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)) ]
  in
  Json.Obj (base @ args)

let make sink =
  {
    sink;
    enabled = sink <> Null;
    default_pid = 1;
    n_recorded = 0;
    n_dropped = 0;
    by_name = Hashtbl.create 32;
  }

let null () = make Null

let ring ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Tracer.ring: capacity must be >= 1";
  make (Ring { buf = Array.make capacity None; next = 0; stored = 0 })

let stream_write st e =
  if not st.closed then begin
    if st.first then st.first <- false else output_string st.oc ",\n";
    output_string st.oc (Json.to_string (event_json e))
  end

let stream ?(process_name = "riq-sim") oc =
  let st = { oc; first = true; closed = false } in
  output_string oc "[\n";
  stream_write st
    {
      ts = 0;
      ph = Meta;
      name = "process_name";
      cat = "__metadata";
      pid = 1;
      tid = 0;
      dur = 0;
      args = [ ("name", Str process_name) ];
    };
  make (Stream st)

let enabled t = t.enabled

let set_pid t pid = t.default_pid <- pid

let emit t e =
  if t.enabled then begin
    t.n_recorded <- t.n_recorded + 1;
    (match Hashtbl.find_opt t.by_name e.name with
    | Some n -> Hashtbl.replace t.by_name e.name (n + 1)
    | None -> Hashtbl.add t.by_name e.name 1);
    match t.sink with
    | Null -> ()
    | Ring r ->
        if r.buf.(r.next) <> None then t.n_dropped <- t.n_dropped + 1
        else r.stored <- r.stored + 1;
        r.buf.(r.next) <- Some e;
        r.next <- (r.next + 1) mod Array.length r.buf
    | Stream st -> stream_write st e
  end

let set_thread_name t ?pid:pid_ ~tid name =
  let pid = match pid_ with Some p -> p | None -> t.default_pid in
  emit t
    { ts = 0; ph = Meta; name = "thread_name"; cat = "__metadata"; pid; tid; dur = 0;
      args = [ ("name", Str name) ] }

let set_process_name t ?pid:pid_ name =
  let pid = match pid_ with Some p -> p | None -> t.default_pid in
  emit t
    { ts = 0; ph = Meta; name = "process_name"; cat = "__metadata"; pid; tid = 0;
      dur = 0; args = [ ("name", Str name) ] }

let begin_span t ~now ?pid:pid_ ?(tid = 0) ?(args = []) ~cat name =
  let pid = match pid_ with Some p -> p | None -> t.default_pid in
  emit t { ts = now; ph = Begin; name; cat; pid; tid; dur = 0; args }

let end_span t ~now ?pid:pid_ ?(tid = 0) ?(args = []) ~cat name =
  let pid = match pid_ with Some p -> p | None -> t.default_pid in
  emit t { ts = now; ph = End; name; cat; pid; tid; dur = 0; args }

let instant t ~now ?pid:pid_ ?(tid = 1) ?(args = []) ~cat name =
  let pid = match pid_ with Some p -> p | None -> t.default_pid in
  emit t { ts = now; ph = Instant; name; cat; pid; tid; dur = 0; args }

let complete t ~now ~dur ?pid:pid_ ?(tid = 0) ?(args = []) ~cat name =
  let pid = match pid_ with Some p -> p | None -> t.default_pid in
  emit t { ts = now; ph = Complete; name; cat; pid; tid; dur = max 0 dur; args }

let counter t ~now ~name series =
  emit t
    {
      ts = now;
      ph = Counter;
      name;
      cat = "counter";
      pid = t.default_pid;
      tid = 0;
      dur = 0;
      args = List.map (fun (k, v) -> (k, Float v)) series;
    }

let recorded t = t.n_recorded
let dropped t = t.n_dropped

let counts t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.by_name []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let events t =
  match t.sink with
  | Null | Stream _ -> []
  | Ring r ->
      (* Oldest first: from the cursor when the ring has wrapped. *)
      let cap = Array.length r.buf in
      let start = if r.stored < cap then 0 else r.next in
      List.filter_map
        (fun i -> r.buf.((start + i) mod cap))
        (List.init r.stored Fun.id)

let to_json t = Json.List (List.map event_json (events t))

let sink_name t =
  match t.sink with Null -> "null" | Ring _ -> "ring" | Stream _ -> "stream"

let summary t =
  Json.Obj
    [
      ("sink", Json.String (sink_name t));
      ("recorded", Json.Int t.n_recorded);
      ("dropped", Json.Int t.n_dropped);
      ("by_name", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counts t)));
    ]

let close t =
  match t.sink with
  | Null | Ring _ -> ()
  | Stream st ->
      if not st.closed then begin
        st.closed <- true;
        output_string st.oc "\n]\n";
        flush st.oc
      end

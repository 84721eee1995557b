(* The metrics registry. See the interface for the model; the points of
   implementation interest:

   - Handles are the mutable cells themselves, returned at registration.
     Updating a counter is [c.c <- c.c + 1] — no hashing, no allocation —
     so instrumenting the engine's per-job path costs nothing measurable
     next to a simulation.
   - Histograms hold per-bucket (not cumulative) counts, in the
     registry and in the riq-metrics/1 document alike.
   - Snapshots are plain immutable data sorted by (name, labels), so
     equal registries produce byte-equal documents. *)

open Riq_util

type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  bounds : float array; (* ascending finite upper bounds *)
  counts : int array; (* length bounds + 1; last = overflow *)
  mutable sum : float;
  mutable n : int;
}

type cell = C of counter | G of gauge | H of histogram

type registered = {
  r_name : string;
  r_help : string;
  r_labels : (string * string) list; (* sorted by key *)
  r_cell : cell;
}

type t = {
  tbl : (string * (string * string) list, registered) Hashtbl.t;
  mutable all : registered list; (* registration order, reversed *)
}

let create () = { tbl = Hashtbl.create 64; all = [] }

let valid_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       n

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register t ~help ~labels name make =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_name k) then
        invalid_arg (Printf.sprintf "Metrics: invalid label name %S" k))
    labels;
  let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  match Hashtbl.find_opt t.tbl (name, labels) with
  | Some r -> r.r_cell
  | None ->
      let cell = make () in
      (* One name, one kind: a reader keys series by name, so a counter
         and a gauge sharing one would be read as each other. *)
      List.iter
        (fun r ->
          if r.r_name = name && kind_name r.r_cell <> kind_name cell then
            invalid_arg
              (Printf.sprintf "Metrics: %s already registered as a %s" name
                 (kind_name r.r_cell)))
        t.all;
      let r = { r_name = name; r_help = help; r_labels = labels; r_cell = cell } in
      Hashtbl.replace t.tbl (name, labels) r;
      t.all <- r :: t.all;
      cell

let counter t ?(help = "") ?(labels = []) name =
  match register t ~help ~labels name (fun () -> C { c = 0 }) with
  | C c -> c
  | _ -> invalid_arg (Printf.sprintf "Metrics: %s is not a counter" name)

let inc c = c.c <- c.c + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotonic";
  c.c <- c.c + n

let counter_value c = c.c

let gauge t ?(help = "") ?(labels = []) name =
  match register t ~help ~labels name (fun () -> G { g = 0. }) with
  | G g -> g
  | _ -> invalid_arg (Printf.sprintf "Metrics: %s is not a gauge" name)

let set g v = g.g <- v
let gauge_value g = g.g

let log_buckets ?(start = 1e-6) ?(factor = 2.) n =
  if n < 1 || start <= 0. || factor <= 1. then
    invalid_arg "Metrics.log_buckets: need n >= 1, start > 0, factor > 1";
  Array.init n (fun i -> start *. (factor ** float_of_int i))

let default_buckets = lazy (log_buckets 30)

let histogram t ?(help = "") ?(labels = []) ?buckets name =
  let make () =
    let bounds =
      match buckets with Some b -> b | None -> Lazy.force default_buckets
    in
    if Array.length bounds = 0 then
      invalid_arg "Metrics.histogram: need at least one bucket bound";
    Array.iteri
      (fun i b ->
        if (not (Float.is_finite b)) || (i > 0 && bounds.(i - 1) >= b) then
          invalid_arg "Metrics.histogram: bounds must be finite and ascending")
      bounds;
    H
      {
        bounds = Array.copy bounds;
        counts = Array.make (Array.length bounds + 1) 0;
        sum = 0.;
        n = 0;
      }
  in
  match register t ~help ~labels name make with
  | H h -> h
  | _ -> invalid_arg (Printf.sprintf "Metrics: %s is not a histogram" name)

(* First bucket with v <= bound: upper bounds are inclusive, so a value
   exactly on an edge counts into that edge's bucket. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go lo hi =
    (* invariant: every i < lo has bounds.(i) < v; every i >= hi admits v *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v <= bounds.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe h v =
  let i = bucket_index h.bounds v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v;
  h.n <- h.n + 1

let histogram_count h = h.n

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Histogram_sample of { bounds : float array; counts : int array; sum : float }

type series = {
  s_name : string;
  s_help : string;
  s_labels : (string * string) list;
  s_value : sample;
}

type snapshot = series list

let compare_series a b =
  match compare a.s_name b.s_name with
  | 0 -> compare a.s_labels b.s_labels
  | c -> c

let snapshot t =
  List.sort compare_series
    (List.map
       (fun r ->
         let v =
           match r.r_cell with
           | C c -> Counter_sample c.c
           | G g -> Gauge_sample g.g
           | H h ->
               Histogram_sample
                 {
                   bounds = Array.copy h.bounds;
                   counts = Array.copy h.counts;
                   sum = h.sum;
                 }
         in
         { s_name = r.r_name; s_help = r.r_help; s_labels = r.r_labels; s_value = v })
       t.all)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let schema = "riq-metrics/1"

let sample_json = function
  | Counter_sample v -> [ ("type", Json.String "counter"); ("value", Json.Int v) ]
  | Gauge_sample v -> [ ("type", Json.String "gauge"); ("value", Json.Float v) ]
  | Histogram_sample { bounds; counts; sum } ->
      [
        ("type", Json.String "histogram");
        ("bounds", Json.List (List.map (fun v -> Json.Float v) (Array.to_list bounds)));
        ("counts", Json.List (List.map (fun v -> Json.Int v) (Array.to_list counts)));
        ("sum", Json.Float sum);
      ]

let to_json snap =
  Json.Obj
    [
      ("schema", Json.String schema);
      ( "series",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 ([
                    ("name", Json.String s.s_name);
                    ("help", Json.String s.s_help);
                    ( "labels",
                      Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.s_labels)
                    );
                  ]
                 @ sample_json s.s_value))
             snap) );
    ]

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "metrics json: missing or ill-typed %S" name)

let all_list conv msg items =
  List.fold_right
    (fun item acc ->
      let* acc = acc in
      match conv item with Some v -> Ok (v :: acc) | None -> Error msg)
    items (Ok [])

let series_of_json j =
  let* name = field "name" Json.to_str j in
  let* help = field "help" Json.to_str j in
  let* labels =
    match Json.member "labels" j with
    | Some (Json.Obj kvs) ->
        all_list
          (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
          "metrics json: non-string label" kvs
    | _ -> Error "metrics json: missing labels object"
  in
  let* ty = field "type" Json.to_str j in
  let* value =
    match ty with
    | "counter" ->
        let* v = field "value" Json.to_int j in
        Ok (Counter_sample v)
    | "gauge" ->
        let* v = field "value" Json.to_float_opt j in
        Ok (Gauge_sample v)
    | "histogram" ->
        let* bounds =
          Result.map Array.of_list
            (Result.bind (field "bounds" Json.to_list j)
               (all_list Json.to_float_opt "metrics json: non-number bound"))
        in
        let* counts =
          Result.map Array.of_list
            (Result.bind (field "counts" Json.to_list j)
               (all_list Json.to_int "metrics json: non-int count"))
        in
        let* sum = field "sum" Json.to_float_opt j in
        if Array.length counts <> Array.length bounds + 1 then
          Error "metrics json: histogram counts/bounds length mismatch"
        else Ok (Histogram_sample { bounds; counts; sum })
    | other -> Error (Printf.sprintf "metrics json: unknown series type %S" other)
  in
  Ok { s_name = name; s_help = help; s_labels = labels; s_value = value }

let snapshot_of_json j =
  let* s = field "schema" Json.to_str j in
  if s <> schema then Error (Printf.sprintf "metrics json: unknown schema %S" s)
  else
    let* items = field "series" Json.to_list j in
    let* series =
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          let* s = series_of_json item in
          Ok (s :: acc))
        items (Ok [])
    in
    Ok (List.sort compare_series series)

(* ------------------------------------------------------------------ *)
(* Quantile estimation                                                 *)
(* ------------------------------------------------------------------ *)

let histogram_quantile q ~bounds ~counts =
  if q < 0. || q > 1. then invalid_arg "Metrics.histogram_quantile: q outside [0, 1]";
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.
  else begin
    let rank = q *. float_of_int total in
    let n = Array.length bounds in
    let rec go i cum =
      if i >= Array.length counts then bounds.(n - 1)
      else
        let cum' = cum + counts.(i) in
        if float_of_int cum' >= rank && counts.(i) > 0 then
          if i >= n then bounds.(n - 1) (* overflow bucket: clamp *)
          else
            let lo = if i = 0 then 0. else bounds.(i - 1) in
            let hi = bounds.(i) in
            let within = (rank -. float_of_int cum) /. float_of_int counts.(i) in
            lo +. ((hi -. lo) *. min 1. (max 0. within))
        else go (i + 1) cum'
    in
    go 0 0
  end

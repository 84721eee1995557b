open Riq_util

type t = {
  names : string array;
  max_samples : int;
  mutable cur_stride : int;
  mutable n_decimations : int;
  mutable cycles : int array; (* capacity max_samples, first n live *)
  mutable data : float array array; (* data.(c) is channel c's series *)
  mutable n : int;
}

let create ?(stride = 64) ?(max_samples = 4096) ~channels () =
  if stride < 1 then invalid_arg "Sampler.create: stride must be >= 1";
  if max_samples < 2 then invalid_arg "Sampler.create: max_samples must be >= 2";
  if channels = [] then invalid_arg "Sampler.create: no channels";
  let names = Array.of_list channels in
  {
    names;
    max_samples;
    cur_stride = stride;
    n_decimations = 0;
    cycles = Array.make max_samples 0;
    data = Array.init (Array.length names) (fun _ -> Array.make max_samples 0.);
    n = 0;
  }

let stride t = t.cur_stride
let decimations t = t.n_decimations
let length t = t.n

let due t ~cycle = cycle mod t.cur_stride = 0

(* Keep every other sample (the even indices, preserving the first) and
   double the stride; the series still spans the whole run. *)
let decimate t =
  let kept = (t.n + 1) / 2 in
  for i = 0 to kept - 1 do
    t.cycles.(i) <- t.cycles.(2 * i);
    Array.iter (fun ch -> ch.(i) <- ch.(2 * i)) t.data
  done;
  t.n <- kept;
  t.cur_stride <- t.cur_stride * 2;
  t.n_decimations <- t.n_decimations + 1

let record t ~cycle values =
  if Array.length values <> Array.length t.names then
    invalid_arg "Sampler.record: value count does not match channels";
  (* After a decimation, samples still arriving on the old stride but off
     the new one are dropped, keeping the retained spacing uniform. *)
  if cycle mod t.cur_stride = 0 then begin
    if t.n = t.max_samples then decimate t;
    t.cycles.(t.n) <- cycle;
    Array.iteri (fun c ch -> ch.(t.n) <- values.(c)) t.data;
    t.n <- t.n + 1
  end

let samples t =
  List.init t.n (fun i -> (t.cycles.(i), Array.map (fun ch -> ch.(i)) t.data))

let summary t =
  let channel_summary c =
    let a = Array.sub t.data.(c) 0 t.n in
    Json.Obj
      [
        ("min", Json.Float (Stats.quantile 0. a));
        ("mean", Json.Float (Stats.mean a));
        ("p50", Json.Float (Stats.quantile 0.5 a));
        ("p95", Json.Float (Stats.quantile 0.95 a));
        ("max", Json.Float (Stats.quantile 1. a));
      ]
  in
  Json.Obj
    [
      ("samples", Json.Int t.n);
      ("stride", Json.Int t.cur_stride);
      ("decimations", Json.Int t.n_decimations);
      ( "channels",
        Json.Obj
          (Array.to_list (Array.mapi (fun c name -> (name, channel_summary c)) t.names)) );
    ]

(* Committed golden digests: one per paper cell (8 kernels x 4 IQ sizes x
   {baseline, reuse}). A digest covers the full stats record with the two
   fast-path diagnostics scrubbed (they legitimately differ between the
   fast and cycle-accurate paths, see Oracle.scrub_fast) plus the Int64
   bits of the four Figure 6 group powers and the total power, so any
   simulation change, down to a float bit, fails the check.

   The same file lists the members of serve-mixed's fuzz-program pool
   that the simulator failed on when it was blessed, with the failure:
   the workload leaves them out so that no op fails on a known bug. *)

open Riq_util
open Riq_core
open Riq_exp

let key ~kernel ~config ~iq = Printf.sprintf "%s/%s/%d" kernel config iq

let digest (r : Outcome.sim_result) =
  let s = Riq_fuzz.Oracle.scrub_fast r.Outcome.stats in
  let b = Buffer.create 512 in
  let i x = Buffer.add_string b (string_of_int x ^ ",") in
  let f x = Buffer.add_string b (Printf.sprintf "%Lx," (Int64.bits_of_float x)) in
  i s.Processor.cycles;
  i s.committed;
  f s.ipc;
  i s.gated_cycles;
  f s.gated_fraction;
  i s.branches;
  i s.mispredicts;
  i s.loads;
  i s.stores;
  i s.reuse_dispatches;
  i s.reuse_committed;
  i s.buffer_attempts;
  i s.revokes;
  i s.promotions;
  i s.reuse_exits;
  f s.avg_power;
  i s.icache_accesses;
  i s.icache_misses;
  i s.dcache_accesses;
  i s.dcache_misses;
  i s.skipped_cycles;
  i s.ffwd_iterations;
  List.iter f
    [ r.icache_power; r.bpred_power; r.iq_power; r.overhead_power; r.total_power ];
  Digest.to_hex (Digest.string (Buffer.contents b))

type t = {
  cells : (string, string) Hashtbl.t; (* cell key -> digest *)
  fuzz_excluded : int list; (* fuzz-pool indices left out *)
}

let schema = "riq-ledger-golden/1"

let of_json doc =
  let list k = Option.bind (Json.member k doc) Json.to_list in
  match (Json.member "schema" doc, list "cells", list "fuzz_excluded") with
  | Some (Json.String s), Some cells, Some excluded when s = schema ->
      let t = Hashtbl.create 64 in
      List.iter
        (fun c ->
          match
            ( Option.bind (Json.member "cell" c) Json.to_str,
              Option.bind (Json.member "digest" c) Json.to_str )
          with
          | Some k, Some d -> Hashtbl.replace t k d
          | _ -> failwith "golden: malformed cell entry")
        cells;
      let index e =
        match Option.bind (Json.member "index" e) Json.to_int with
        | Some i -> i
        | None -> failwith "golden: malformed fuzz_excluded entry"
      in
      { cells = t; fuzz_excluded = List.map index excluded }
  | _ -> failwith ("golden: expected schema " ^ schema)

let load path = of_json (Json.of_string_exn (Spec.read_file path))

(* [excluded]: (pool index, program seed, failure) per left-out program. *)
let save path ~cells ~excluded =
  Json.to_file path
    (Json.Obj
       [
         ("schema", Json.String schema);
         ("revision", Json.String Revision.stamp);
         ( "cells",
           Json.List
             (List.map
                (fun (k, d) -> Json.Obj [ ("cell", Json.String k); ("digest", Json.String d) ])
                cells) );
         ( "fuzz_excluded",
           Json.List
             (List.map
                (fun (i, seed, why) ->
                  Json.Obj
                    [
                      ("index", Json.Int i);
                      ("seed", Json.String (string_of_int seed));
                      ("failure", Json.String why);
                    ])
                excluded) );
       ])

let check (t : t) key r =
  match Hashtbl.find_opt t.cells key with
  | None -> Error ("no golden digest for " ^ key)
  | Some d when d = digest r -> Ok ()
  | Some _ -> Error ("stats/power digest differs from golden for " ^ key)

open Riq_util
open Riq_power
open Riq_ooo
open Riq_core
open Riq_obs

(* /2: loop decisions gained the per-cause revoke split.
   /3: stats gained skipped_cycles and ffwd_iterations, the counters of
   two simulator-only fast paths.
   /4: both went (always 0 once the fast paths were removed), and so did
   the trace block, which no report-writing run filled. *)
let schema = "riq-report/4"

let stats_json (s : Processor.stats) =
  Json.Obj
    [
      ("cycles", Json.Int s.Processor.cycles);
      ("committed", Json.Int s.Processor.committed);
      ("ipc", Json.Float s.Processor.ipc);
      ("gated_cycles", Json.Int s.Processor.gated_cycles);
      ("gated_fraction", Json.Float s.Processor.gated_fraction);
      ("branches", Json.Int s.Processor.branches);
      ("mispredicts", Json.Int s.Processor.mispredicts);
      ("loads", Json.Int s.Processor.loads);
      ("stores", Json.Int s.Processor.stores);
      ("reuse_dispatches", Json.Int s.Processor.reuse_dispatches);
      ("reuse_committed", Json.Int s.Processor.reuse_committed);
      ("buffer_attempts", Json.Int s.Processor.buffer_attempts);
      ("revokes", Json.Int s.Processor.revokes);
      ("promotions", Json.Int s.Processor.promotions);
      ("reuse_exits", Json.Int s.Processor.reuse_exits);
      ("avg_power", Json.Float s.Processor.avg_power);
      ("icache_accesses", Json.Int s.Processor.icache_accesses);
      ("icache_misses", Json.Int s.Processor.icache_misses);
      ("dcache_accesses", Json.Int s.Processor.dcache_accesses);
      ("dcache_misses", Json.Int s.Processor.dcache_misses);
    ]

let config_json (cfg : Config.t) =
  Json.Obj
    [
      ("iq_entries", Json.Int cfg.Config.iq_entries);
      ("rob_entries", Json.Int cfg.Config.rob_entries);
      ("lsq_entries", Json.Int cfg.Config.lsq_entries);
      ("fetch_width", Json.Int cfg.Config.fetch_width);
      ("issue_width", Json.Int cfg.Config.issue_width);
      ("reuse_enabled", Json.Bool cfg.Config.reuse_enabled);
      ("nblt_entries", Json.Int cfg.Config.nblt_entries);
      ("buffer_multiple_iterations", Json.Bool cfg.Config.buffer_multiple_iterations);
      ("loop_cache_entries", Json.Int cfg.Config.loop_cache_entries);
    ]

let loop_decision_json (d : Processor.loop_decision) =
  Json.Obj
    [
      ("head", Json.Int d.Processor.ld_head);
      ("tail", Json.Int d.Processor.ld_tail);
      ("span", Json.Int d.Processor.ld_span);
      ("detections", Json.Int d.Processor.ld_detections);
      ("nblt_filtered", Json.Int d.Processor.ld_nblt_filtered);
      ("attempts", Json.Int d.Processor.ld_attempts);
      ("revokes", Json.Int d.Processor.ld_revokes);
      ( "revoke_causes",
        Json.Obj
          [
            ("inner_loop", Json.Int d.Processor.ld_rv_inner);
            ("left_loop", Json.Int d.Processor.ld_rv_left);
            ("overflow", Json.Int d.Processor.ld_rv_overflow);
            ("mispredict", Json.Int d.Processor.ld_rv_mispredict);
          ] );
      ("nblt_registered", Json.Int d.Processor.ld_nblt_registered);
      ("promotions", Json.Int d.Processor.ld_promotions);
      ("reuse_committed", Json.Int d.Processor.ld_reuse_committed);
    ]

let power_json acct =
  Json.Obj
    (Array.to_list
       (Array.map
          (fun g -> (Component.group_name g, Json.Float (Account.group_power acct g)))
          Component.groups)
    @ [ ("total", Json.Float (Account.avg_power acct)) ])

let make ?benchmark p =
  Json.Obj
    (("schema", Json.String schema)
    :: ("revision", Json.String Riq_exp.Revision.stamp)
    :: (match benchmark with
       | None -> []
       | Some b -> [ ("benchmark", Json.String b) ])
    @ [
        ("config", config_json (Processor.config p));
        ("stats", stats_json (Processor.stats p));
        ("power", power_json (Processor.account p));
        ( "loop_decisions",
          Json.List (List.map loop_decision_json (Processor.loop_decisions p)) );
        ( "sampler",
          match Processor.sampler p with
          | None -> Json.Null
          | Some s -> Sampler.summary s );
      ])

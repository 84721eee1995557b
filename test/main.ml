(* Test entry point: every module contributes its own suites. *)

let () =
  Alcotest.run "riq"
    (Test_util.suites @ Test_util.csv_suites @ Test_isa.suites @ Test_asm.suites @ Test_asm.extra_suites @ Test_interp.suites
   @ Test_mem.suites @ Test_mem.extra_suites @ Test_branch.suites @ Test_power.suites @ Test_ooo.suites
   @ Test_core.suites @ Test_core.extra_suites @ Test_core.gating_suites
   @ Test_core.misc_suites @ Test_core.alloc_suites @ Test_loopir.suites
   @ Test_loopir.unroll_suites @ Test_workloads.suites
   @ Test_differential.suites @ Test_asm_fuzz.suites @ Test_harness.suites @ Test_analysis.suites @ Test_dataflow.suites
   @ Test_exp.suites @ Test_obs.suites @ Test_metrics.suites @ Test_fuzz.suites
   @ Test_svc.suites)

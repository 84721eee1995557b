open Riq_interp
open Riq_power
open Riq_core

(* Prints one line per golden cell:

     <cell> cycles=N committed=N <md5>

   The md5 covers the final architectural state, every [Processor.stats]
   field, every component's energy and every field of every loop
   decision, floats as their bits. The runtest alias diffs the output
   against core.digests, so any change to what the core computes on
   these inputs fails with the cells it moved; re-bless with
   [dune promote] only for a documented bug fix. *)

let digest (arch : Machine.arch_state) (st : Processor.stats) acct decisions =
  let b = Buffer.create 4096 in
  let i n = Buffer.add_string b (string_of_int n); Buffer.add_char b ' ' in
  let f x = Buffer.add_string b (Int64.to_string (Int64.bits_of_float x)); Buffer.add_char b ' ' in
  i arch.final_pc;
  i arch.instructions;
  Array.iter i arch.int_regs;
  Array.iter f arch.fp_regs;
  (* The flat (address, word) pairs in address order: the integers, in
     the order, that core.digests was blessed with. *)
  Array.iter i arch.memory;
  (* Destructured without [_] so a new field fails to compile here. *)
  let { Processor.cycles; committed; ipc; gated_cycles; gated_fraction; branches;
        mispredicts; loads; stores; reuse_dispatches; reuse_committed; buffer_attempts;
        revokes; promotions; reuse_exits; avg_power; icache_accesses; icache_misses;
        dcache_accesses; dcache_misses; skipped_cycles; ffwd_iterations } = st in
  List.iter i
    [ cycles; committed; gated_cycles; branches; mispredicts; loads; stores;
      reuse_dispatches; reuse_committed; buffer_attempts; revokes; promotions;
      reuse_exits; icache_accesses; icache_misses; dcache_accesses; dcache_misses;
      skipped_cycles; ffwd_iterations ];
  List.iter f [ ipc; gated_fraction; avg_power ];
  Array.iter
    (fun c -> Buffer.add_string b (Component.name c); f (Account.energy_of acct c))
    Component.all;
  f (Account.total_energy acct);
  List.iter
    (fun { Processor.ld_head; ld_tail; ld_span; ld_detections; ld_nblt_filtered;
           ld_attempts; ld_revokes; ld_rv_inner; ld_rv_left; ld_rv_overflow;
           ld_rv_mispredict; ld_nblt_registered; ld_promotions; ld_reuse_committed } ->
      List.iter i
        [ ld_head; ld_tail; ld_span; ld_detections; ld_nblt_filtered; ld_attempts;
          ld_revokes; ld_rv_inner; ld_rv_left; ld_rv_overflow; ld_rv_mispredict;
          ld_nblt_registered; ld_promotions; ld_reuse_committed ])
    decisions;
  Digest.to_hex (Digest.string (Buffer.contents b))

let () =
  List.iter
    (fun (name, cfg, program) ->
      let p = Processor.create cfg program in
      (match Processor.run p with
      | Processor.Halted -> ()
      | Processor.Cycle_limit -> failwith (name ^ ": cycle limit"));
      let st = Processor.stats p in
      Printf.printf "%s cycles=%d committed=%d %s\n" name st.Processor.cycles
        st.Processor.committed
        (digest (Processor.arch_state p) st (Processor.account p) (Processor.loop_decisions p)))
    (Golden_cells.all ())

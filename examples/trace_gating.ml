(* Loop gating through the tracer: drive the processor cycle by cycle on a
   small nested loop with a ring-buffer tracer attached and replay the
   recorded events as a readable transition log — loop detection, the NBLT
   filtering the non-bufferable outer loop, "loop-buffering" and
   "code-reuse" spans (Figure 2 of the paper), revokes and pipeline
   flushes. The same events, streamed with [riq-sim trace BENCH --out],
   render as named spans in Perfetto.

   Run with: dune exec examples/trace_gating.exe *)

open Riq_asm
open Riq_obs
open Riq_ooo
open Riq_core

(* An inner loop (bufferable) inside an outer loop (non-bufferable: the
   inner loop is detected during its buffering), as in Figure 4. *)
let source = {|
start:
    li   r20, 0            # outer index
outer:
    li   r21, 0            # inner index
    li   r22, 40           # inner trip count
    la   r23, data
inner:
    sll  r2, r21, 2
    add  r2, r2, r23
    lw   r3, 0(r2)
    add  r24, r24, r3
    addi r21, r21, 1
    slt  r4, r21, r22
    bne  r4, r0, inner
    addi r20, r20, 1
    slti r5, r20, 12
    bne  r5, r0, outer
    halt
.space data 40
|}

let arg_str args name =
  match List.assoc_opt name args with
  | Some (Tracer.Int v) -> Printf.sprintf "%s=%#x" name v
  | Some (Tracer.Float v) -> Printf.sprintf "%s=%g" name v
  | Some (Tracer.Str v) -> Printf.sprintf "%s=%s" name v
  | None -> ""

let () =
  let program = Parse.program_exn source in
  let tracer = Tracer.ring ~capacity:65536 () in
  let p = Processor.create ~tracer Config.reuse program in
  while (not (Processor.halted p)) && Processor.cycles p < 100_000 do
    Processor.step_cycle p
  done;
  (* Replay the reuse-engine events as the old ad-hoc printer did — but
     from the structured record, so the log and a Perfetto trace can never
     disagree. *)
  let shown = ref 0 in
  List.iter
    (fun e ->
      let describe =
        match (e.Tracer.name, e.Tracer.ph) with
        | "loop-detected", _ ->
            Some (Printf.sprintf "loop detected       %s %s" (arg_str e.Tracer.args "head")
                    (arg_str e.Tracer.args "tail"))
        | "nblt-suppress", _ -> Some "detection suppressed by the NBLT"
        | "nblt-register", _ ->
            Some (Printf.sprintf "NBLT registered     %s" (arg_str e.Tracer.args "tail"))
        | "loop-buffering", Tracer.Begin ->
            Some (Printf.sprintf "span open           loop-buffering %s %s"
                    (arg_str e.Tracer.args "head") (arg_str e.Tracer.args "tail"))
        | "loop-buffering", Tracer.End -> Some "span close          loop-buffering"
        | "code-reuse", Tracer.Begin ->
            let iters =
              match List.assoc_opt "iters_buffered" e.Tracer.args with
              | Some (Tracer.Int v) -> v
              | _ -> 0
            in
            Some (Printf.sprintf
                    "span open           code-reuse (%d iterations buffered; front-end gated)"
                    iters)
        | "code-reuse", Tracer.End -> Some "span close          code-reuse"
        | "revoke", _ -> Some "buffering revoked"
        | _ -> None
      in
      match describe with
      | Some line when !shown < 60 ->
          incr shown;
          Printf.printf "cycle %6d  %s\n" e.Tracer.ts line
      | _ -> ())
    (Tracer.events tracer);
  let st = Processor.stats p in
  Printf.printf
    "\nfinished: %d cycles, %d instructions, gated %.1f%% of cycles\n"
    st.Processor.cycles st.Processor.committed
    (100. *. st.Processor.gated_fraction);
  Printf.printf
    "buffering: %d attempts, %d revokes (NBLT filtered %d re-detections), %d promotions\n"
    st.Processor.buffer_attempts st.Processor.revokes
    (List.fold_left
       (fun n d -> n + d.Processor.ld_nblt_filtered)
       0 (Processor.loop_decisions p))
    st.Processor.promotions;
  Printf.printf "tracer: %d events recorded (%s)\n" (Tracer.recorded tracer)
    (String.concat ", "
       (List.map (fun (n, c) -> Printf.sprintf "%s x%d" n c) (Tracer.counts tracer)))

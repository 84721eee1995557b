open Riq_isa

type state = Idle | Fill | Active

type t = {
  cap : int;
  mutable st : state;
  mutable head : int;
  mutable tail : int;
  mutable filled : int;
  mutable n_supply : int;
  mutable n_activate : int;
}

let create cap =
  if cap < 4 then invalid_arg "Loopcache.create: capacity must be >= 4";
  { cap; st = Idle; head = 0; tail = 0; filled = 0; n_supply = 0; n_activate = 0 }

let state t = t.st

let in_loop t pc = pc >= t.head && pc <= t.tail

let serving t ~pc = t.st = Active && in_loop t pc

(* The taken target of a short backward branch — a conditional branch or
   direct jump whose taken target is behind it by at most the cache
   capacity — or -1 for any other instruction. *)
let sbb_target_decoded t ~pc ~kind ~static_target =
  match kind with
  | Insn.K_branch | K_jump ->
      if
        static_target >= 0
        && static_target <= pc
        && ((pc - static_target) / 4) + 1 <= t.cap
      then static_target
      else -1
  | K_call | K_return | K_ijump | K_int | K_fp | K_load | K_store | K_nop | K_halt -> -1

let to_idle t =
  t.st <- Idle;
  t.filled <- 0

let on_fetch_decoded t ~pc ~kind ~static_target ~pred_npc =
  match t.st with
  | Idle ->
      let target = sbb_target_decoded t ~pc ~kind ~static_target in
      if target >= 0 && pred_npc = target then begin
        t.st <- Fill;
        t.head <- target;
        t.tail <- pc;
        t.filled <- 0
      end
  | Fill ->
      if in_loop t pc then begin
        t.filled <- t.filled + 1;
        if pc = t.tail then
          if pred_npc = t.head && t.filled >= ((t.tail - t.head) / 4) + 1 then begin
            t.st <- Active;
            t.n_activate <- t.n_activate + 1
          end
          else to_idle t
      end
      else to_idle t (* left the loop while filling *)
  | Active ->
      if in_loop t pc then begin
        t.n_supply <- t.n_supply + 1;
        if pc = t.tail && pred_npc <> t.head then to_idle t
      end
      else to_idle t

let reset t = to_idle t
let supplies t = t.n_supply
let activations t = t.n_activate

open Riq_obs

type state = Normal | Buffering | Reusing

type revoke_cause = Rv_inner_loop | Rv_left_loop | Rv_overflow | Rv_mispredict

let revoke_causes = [ Rv_inner_loop; Rv_left_loop; Rv_overflow; Rv_mispredict ]

let cause_to_string = function
  | Rv_inner_loop -> "inner-loop"
  | Rv_left_loop -> "left-loop"
  | Rv_overflow -> "overflow"
  | Rv_mispredict -> "mispredict"

type t = {
  tracer : Tracer.t;
  mutable state : state;
  mutable head : int;
  mutable tail : int;
  mutable iter_count : int;
  mutable call_depth : int;
  mutable iters_buffered : int;
  mutable n_buffer_attempts : int;
  mutable n_revokes : int;
  mutable n_promotions : int;
  mutable n_reuse_exits : int;
}

let create ?tracer () =
  {
    tracer = (match tracer with Some tr -> tr | None -> Tracer.null ());
    state = Normal;
    head = 0;
    tail = 0;
    iter_count = 0;
    call_depth = 0;
    iters_buffered = 0;
    n_buffer_attempts = 0;
    n_revokes = 0;
    n_promotions = 0;
    n_reuse_exits = 0;
  }

(* Span conventions: the buffering window and the Code-Reuse gating window
   are named spans on track 0 ("reuse-engine"), so a Perfetto timeline
   shows exactly when the machine held each state. *)
let loop_args t =
  [ ("head", Tracer.Int t.head); ("tail", Tracer.Int t.tail) ]

let start_buffering ?(now = 0) t ~head ~tail =
  assert (t.state = Normal);
  t.state <- Buffering;
  t.head <- head;
  t.tail <- tail;
  t.iter_count <- 0;
  t.call_depth <- 0;
  t.iters_buffered <- 0;
  t.n_buffer_attempts <- t.n_buffer_attempts + 1;
  if Tracer.enabled t.tracer then
    Tracer.begin_span t.tracer ~now ~args:(loop_args t) ~cat:"reuse" "loop-buffering"

let revoke ?(now = 0) t =
  assert (t.state = Buffering);
  t.state <- Normal;
  t.n_revokes <- t.n_revokes + 1;
  if Tracer.enabled t.tracer then
    Tracer.end_span t.tracer ~now ~cat:"reuse" "loop-buffering"

let promote ?(now = 0) t =
  assert (t.state = Buffering);
  t.state <- Reusing;
  t.n_promotions <- t.n_promotions + 1;
  if Tracer.enabled t.tracer then begin
    Tracer.end_span t.tracer ~now ~cat:"reuse" "loop-buffering";
    Tracer.begin_span t.tracer ~now
      ~args:(("iters_buffered", Tracer.Int t.iters_buffered) :: loop_args t)
      ~cat:"reuse" "code-reuse"
  end

let exit_reuse ?(now = 0) t =
  assert (t.state = Reusing);
  t.state <- Normal;
  t.n_reuse_exits <- t.n_reuse_exits + 1;
  if Tracer.enabled t.tracer then
    Tracer.end_span t.tracer ~now ~cat:"reuse" "code-reuse"

let in_loop t ~pc = pc >= t.head && pc <= t.tail

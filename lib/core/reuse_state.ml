type state = Normal | Buffering | Reusing

type revoke_cause = Rv_inner_loop | Rv_left_loop | Rv_overflow | Rv_mispredict

let revoke_causes = [ Rv_inner_loop; Rv_left_loop; Rv_overflow; Rv_mispredict ]

let cause_to_string = function
  | Rv_inner_loop -> "inner-loop"
  | Rv_left_loop -> "left-loop"
  | Rv_overflow -> "overflow"
  | Rv_mispredict -> "mispredict"

type t = {
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

let create () =
  {
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

let start_buffering t ~head ~tail =
  assert (t.state = Normal);
  t.state <- Buffering;
  t.head <- head;
  t.tail <- tail;
  t.iter_count <- 0;
  t.call_depth <- 0;
  t.iters_buffered <- 0;
  t.n_buffer_attempts <- t.n_buffer_attempts + 1

let revoke t =
  assert (t.state = Buffering);
  t.state <- Normal;
  t.n_revokes <- t.n_revokes + 1

let promote t =
  assert (t.state = Buffering);
  t.state <- Reusing;
  t.n_promotions <- t.n_promotions + 1

let exit_reuse t =
  assert (t.state = Reusing);
  t.state <- Normal;
  t.n_reuse_exits <- t.n_reuse_exits + 1

let in_loop t ~pc = pc >= t.head && pc <= t.tail

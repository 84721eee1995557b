open Riq_isa

type pool = { busy_until : int array; mutable n_issued : int }

type t = { ialu : pool; imult : pool; fpalu : pool; fpmult : pool; mem : pool }

let make_pool n = { busy_until = Array.make n 0; n_issued = 0 }

let create ~n_ialu ~n_imult ~n_fpalu ~n_fpmult ~n_memport =
  {
    ialu = make_pool n_ialu;
    imult = make_pool n_imult;
    fpalu = make_pool n_fpalu;
    fpmult = make_pool n_fpmult;
    mem = make_pool n_memport;
  }

let pool_of t = function
  | Insn.FU_ialu -> Some t.ialu
  | FU_imult -> Some t.imult
  | FU_fpalu -> Some t.fpalu
  | FU_fpmult -> Some t.fpmult
  | FU_mem -> Some t.mem
  | FU_none -> None

(* Imperative scan: local refs compile to stack mutables, so the hot
   path allocates nothing. *)
let acquire_pool pool ~now ~latency ~pipelined =
  let n = Array.length pool.busy_until in
  let i = ref 0 in
  let got = ref false in
  while (not !got) && !i < n do
    if pool.busy_until.(!i) <= now then begin
      pool.busy_until.(!i) <- now + (if pipelined then 1 else latency);
      pool.n_issued <- pool.n_issued + 1;
      got := true
    end
    else incr i
  done;
  !got

let acquire t cls ~now ~latency ~pipelined =
  match cls with
  | Insn.FU_none -> true
  | FU_ialu -> acquire_pool t.ialu ~now ~latency ~pipelined
  | FU_imult -> acquire_pool t.imult ~now ~latency ~pipelined
  | FU_fpalu -> acquire_pool t.fpalu ~now ~latency ~pipelined
  | FU_fpmult -> acquire_pool t.fpmult ~now ~latency ~pipelined
  | FU_mem -> acquire_pool t.mem ~now ~latency ~pipelined

let issued_of t cls = match pool_of t cls with None -> 0 | Some pool -> pool.n_issued

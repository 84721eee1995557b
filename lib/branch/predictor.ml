open Riq_isa

type scheme = Bimodal | Gshare of { history_bits : int }

type config = {
  scheme : scheme;
  entries : int;
  btb_sets : int;
  btb_ways : int;
  ras_size : int;
}

let baseline = { scheme = Bimodal; entries = 2048; btb_sets = 512; btb_ways = 4; ras_size = 8 }

type dir = Dir_bimod of Bimod.t | Dir_gshare of Gshare.t

type t = {
  dir : dir;
  btb : Btb.t;
  ras : Ras.t;
  mutable n_dir_lookup : int;
  mutable n_dir_update : int;
}

let create config =
  let dir =
    match config.scheme with
    | Bimodal -> Dir_bimod (Bimod.create config.entries)
    | Gshare { history_bits } ->
        Dir_gshare (Gshare.create ~entries:config.entries ~history_bits)
  in
  {
    dir;
    btb = Btb.create ~sets:config.btb_sets ~ways:config.btb_ways;
    ras = Ras.create config.ras_size;
    n_dir_lookup = 0;
    n_dir_update = 0;
  }

let predict_dir t ~pc =
  t.n_dir_lookup <- t.n_dir_lookup + 1;
  match t.dir with
  | Dir_bimod b -> Bimod.predict b ~pc
  | Dir_gshare g -> Gshare.predict g ~pc

let update_dir t ~pc ~taken =
  t.n_dir_update <- t.n_dir_update + 1;
  match t.dir with
  | Dir_bimod b -> Bimod.update b ~pc ~taken
  | Dir_gshare g -> Gshare.update g ~pc ~taken

(* Driven by pre-decoded kinds and static targets (-1 = statically
   unknown), returning the predicted next pc directly (-1 = unknown, fetch
   must stall): no option or record allocation on the fetch path. *)
let lookup_decoded t ~pc ~kind ~static_target =
  match kind with
  | Insn.K_branch ->
      let taken = predict_dir t ~pc in
      ignore (Btb.lookup_target t.btb ~pc);
      if taken then static_target else pc + 4
  | K_jump ->
      ignore (Btb.lookup_target t.btb ~pc);
      static_target
  | K_call ->
      Ras.push t.ras (pc + 4);
      let btb = Btb.lookup_target t.btb ~pc in
      if static_target >= 0 then static_target else btb
  | K_return ->
      let target = Ras.pop t.ras in
      if target >= 0 then target else Btb.lookup_target t.btb ~pc
  | K_ijump -> Btb.lookup_target t.btb ~pc
  | K_int | K_fp | K_load | K_store | K_nop | K_halt -> pc + 4

let resolve_decoded t ~pc ~kind ~taken ~target =
  match kind with
  | Insn.K_branch ->
      update_dir t ~pc ~taken;
      if taken then Btb.update t.btb ~pc ~target
  | K_jump | K_call | K_ijump -> Btb.update t.btb ~pc ~target
  | K_return -> () (* returns are served by the RAS, keeping the BTB clean *)
  | K_int | K_fp | K_load | K_store | K_nop | K_halt -> ()

type checkpoint = int

let checkpoint t = Ras.checkpoint t.ras
let restore t ck = Ras.restore t.ras ck

let dir_lookups t = t.n_dir_lookup
let dir_updates t = t.n_dir_update
let btb_lookups t = Btb.lookups t.btb
let ras_ops t = Ras.pushes t.ras + Ras.pops t.ras

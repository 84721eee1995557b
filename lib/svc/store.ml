(* The former shared-store layer, now part of {!Riq_exp.Cache}; kept as an
   alias for existing callers. *)
include Riq_exp.Cache

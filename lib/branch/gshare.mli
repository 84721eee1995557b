(** Gshare direction predictor (global history XOR PC into a table of 2-bit
    counters). Not part of the paper's baseline (which is bimodal); provided
    for the predictor-sensitivity ablation bench. History is updated at
    resolve time (non-speculatively). *)

type t

val create : entries:int -> history_bits:int -> t
val predict : t -> pc:int -> bool
val update : t -> pc:int -> taken:bool -> unit

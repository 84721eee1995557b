(** Cycle-by-cycle energy accounting.

    The simulator fills {!activity} with this cycle's access counts
    (fractional counts are allowed — reuse-mode partial updates charge a
    fraction of a write) and calls {!tick} once per cycle. [tick] charges
    [count * energy] for active components, the cc3 idle residual for
    inactive ones, the unconditional clock-tree energy, and clears the
    activity array for the next cycle. *)

type t

val create : Model.t -> t
val add : t -> Component.t -> float -> unit
(** Convenience: bump this cycle's activity count. *)

val tick : t -> unit

val cycles : t -> int
val total_energy : t -> float
val energy_of : t -> Component.t -> float
val group_energy : t -> Component.group -> float

val avg_power : t -> float
(** Total energy divided by cycles — the paper's "overall power (per
    cycle)" metric. *)

val group_power : t -> Component.group -> float

val breakdown : t -> (Component.t * float) array
(** Per-component share of total energy, descending. *)

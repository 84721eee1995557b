(** Logical registers of the RIQ32 ISA.

    A single flat namespace covers both files so that rename tables and the
    paper's logical register list (LRL) can index registers uniformly:
    [0..31] are the integer registers [r0..r31] ([r0] is hard-wired to zero),
    [32..63] are the floating-point registers [f0..f31]. *)

type t = int

val count : int
(** Total number of logical registers (64). *)

val r : int -> t
(** [r n] is integer register [rn], [0 <= n <= 31]. *)

val f : int -> t
(** [f n] is floating-point register [fn], [0 <= n <= 31]. *)

val zero : t
(** [r0], always reads as integer 0; writes are discarded. *)

val ra : t
(** [r31], the link register written by [jal]/[jalr]. *)

val sp : t
(** [r29], conventional stack pointer. *)

val is_fp : t -> bool
val index : t -> int
(** Position within its own file, [0..31]. *)

val to_string : t -> string
(** ["r7"], ["f12"], ... *)

val of_string : string -> t option
(** Parses the [to_string] syntax. *)

(** Lightweight statistics helpers used by the harness and power accounting. *)

val mean : float array -> float
(** Arithmetic mean; 0. for the empty array. *)

val quantile : float -> float array -> float
(** [quantile q a] is the [q]-th quantile of [a] (linear interpolation
    between closest ranks, the default of R/numpy): [quantile 0.] is the
    minimum, [quantile 1.] the maximum, [quantile 0.5] the median. Returns
    0. for the empty array and the element itself for singletons. Raises
    [Invalid_argument] when [q] is outside [0, 1]. *)

val percent : float -> float -> float
(** [percent part whole] is [100 * part / whole], or 0. when [whole = 0.]. *)

val ratio : float -> float -> float
(** [ratio a b] is [a / b], or 0. when [b = 0.]. *)

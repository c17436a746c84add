(** Small floating-point helpers shared by the model and simulator. *)

val approx_equal : ?rel:float -> ?abs:float -> float -> float -> bool
(** [approx_equal ~rel ~abs a b] holds when [a] and [b] agree within
    an absolute tolerance [abs] (default [1e-12]) or a relative
    tolerance [rel] (default [1e-9]) of the larger magnitude. *)

val relative_error : expected:float -> actual:float -> float
(** [|actual - expected| / |expected|]; if [expected = 0.] falls back
    to the absolute error. *)

val safe_div : float -> float -> float
(** [safe_div num den] is [num /. den], or [infinity]/[neg_infinity]
    when [den = 0.] and [num <> 0.], or [0.] when both are zero.
    Keeps saturated-queue formulas from producing NaNs. *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp into [[lo, hi]].  Requires [lo <= hi]. *)

val is_finite : float -> bool
(** Neither NaN nor infinite. *)

val square : float -> float
(** [square x = x *. x]. *)

val sum_array : float array -> float
(** Left-to-right sum, [Array.fold_left ( +. ) 0.] — the same
    association as the list fold it replaces, so migrated call sites
    keep their results bit-for-bit. *)

val mean_of_array : float array -> float
(** Arithmetic mean over an array; 0. on the empty array. *)

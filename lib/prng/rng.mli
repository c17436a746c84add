(** High-level random variate generation.

    Wraps {!Xoshiro} with the distributions the workload generators
    and simulator need: uniforms, exponentials (Poisson inter-arrival
    times), Bernoulli trials, and sampling without replacement.  All
    draws are reproducible from the [int64] seed. *)

type t
(** A random stream. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] builds a stream.  Default seed is a fixed
    constant so that unseeded runs are still reproducible. *)

val split : t -> t
(** [split t] returns a new stream decorrelated from [t] (jump-ahead
    by 2^128), leaving [t] advanced past the jump.  Use one split per
    simulated entity to keep per-entity streams independent. *)

val float : t -> float
(** Uniform on [[0, 1)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform on [[lo, hi)].  Requires [lo < hi]. *)

val int : t -> int -> int
(** [int t n] uniform on [[0, n)]; [n > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [true] with probability [p]; [p] clamped to [[0, 1]]. *)

val exponential : t -> rate:float -> float
(** Exponential variate with the given [rate] (mean [1 /. rate]).
    Requires [rate > 0.]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val int_excluding : t -> int -> excluding:int -> int
(** [int_excluding t n ~excluding:e] is uniform on
    [[0, n) \ {e}].  Requires [n >= 2] and [0 <= e < n].  Used for
    "uniform destination other than self". *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

(** Model-side latency distribution: a mixture of shifted
    exponentials.

    Each (cluster, traffic-class) component of the mean model — a
    cluster's intra-cluster traffic, or its traffic to one destination
    cluster — is a deterministic floor (network head latency plus
    tail-flit drain) followed by a wait that is zero with probability
    [1 - sigma] and exponential with mean [wait_mean / sigma]
    otherwise.  The system law is the node- and class-weighted
    mixture.  {!Eval.tail} fits it from the model kernel's per-class
    terms (see there for the fit); this module only reads it.

    Components that come from bitwise-equal model inputs share one
    {e class}: their floor, wait and busy probability are stored once,
    and each component carries its weight and its class index.  A CDF
    probe evaluates [exp] once per class and then sums the weighted
    terms in component order — the same operands in the same order as
    a per-component sum, so the result does not depend on how many
    components share a class. *)

type t = {
  mean : float;  (** Eq. (3): the mixture's mean *)
  weight : float array;  (** per component: node share × class share *)
  cls : int array;  (** per component: its class, an index into the arrays below *)
  floor : float array;  (** per class: deterministic network + tail-drain latency *)
  wait_mean : float array;  (** per class: mean waiting time (Eqs. 15/31/36) *)
  sigma : float array;  (** per class: fitted P(wait > 0), the queue-busy probability *)
}
(** [weight] and [cls] have one entry per component, [floor],
    [wait_mean] and [sigma] one per class.  Treat every array as
    read-only: fits of one workspace share [weight] and [cls].
    {!cdf} and {!quantile} check that shape first (their loops then
    index unchecked) and raise [Invalid_argument] when a length or a
    class index disagrees. *)

val cdf : t -> float -> float
(** [cdf t x] = P(latency <= x) under the mixture. *)

val complementary_cdf : t -> float -> float
(** [1 - cdf t x]: the tail probability P(latency > x). *)

val quantile : t -> float -> float
(** Invert the mixture CDF by bisection: the smallest [x] with
    [cdf t x >= q].  [infinity] when the model is saturated (any
    class diverged).  @raise Invalid_argument unless [0 < q < 1].

    One loop doubles an upper bracket out from the largest floor,
    then halves [(lo, hi)] from the least floor at most 100 times and
    returns [hi].  It stops at the first halving that
    leaves [(lo, hi)] unchanged, since every later one would too.
    Each probe decides [cdf t x >= q] from the class-aggregated sum
    when that sum lies outside a rigorous rounding band around [q],
    and from the component-order sum [cdf] computes otherwise.  So it
    visits the same midpoints, makes the same decisions and returns
    the same bits as running all 100 halvings on [cdf], for any
    finite [t] (DESIGN.md, "The model kernel"). *)

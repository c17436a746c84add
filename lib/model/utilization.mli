(** Analytical resource-utilization breakdown — which queue or channel
    class the model expects to saturate first, and at what load.

    Section 4's "typical analysis" identifies the inter-cluster
    networks, especially ICN2, as the bottleneck; this module makes
    that reasoning a first-class query instead of a by-product of
    sweeping latency to divergence.  Each resource's utilization is
    the ρ of the queue the model attaches to it: a rate times the
    zero-load service floor M·t of that queue or channel.  The rates
    are the kernel's own, under Eq. (2)'s uniform outgoing
    probabilities: one {!Eval.mean_into} at [lambda_g] (one
    [model_evaluations] tick), then λ_I1, η_I1, η_E1, λ_I2 and η_I2
    (Eqs. 7, 10, 22–25) read from {!Eval.terms}; only the per-node
    source rates λ(1−U) and λU are formed here.  The saturation rate
    scales as [λ_sat = λ_g / ρ] per resource, so under the default
    variants the minimum over resources reproduces
    {!Eval.saturation_rate} up to the blocking-recursion terms. *)

type resource =
  | Intra_channel of int        (** ICN1 channels of a cluster *)
  | Intra_source of int         (** source queue into ICN1 *)
  | Egress_channel of int * int (** ECN1 channels, pair (i, j) view *)
  | Egress_source of int        (** source queue into ECN1 *)
  | Icn2_channel of int * int   (** ICN2 channels, pair (i, j) view *)
  | Cd_queue of int * int       (** concentrator/dispatcher, pair (i, j) *)

type entry = {
  resource : resource;
  rho : float;           (** utilization at the queried [lambda_g] *)
  saturates_at : float;  (** the λ_g where this ρ reaches 1 *)
}

val analyze :
  ?variants:Variants.t ->
  system:Params.system ->
  message:Params.message ->
  lambda_g:float ->
  unit ->
  entry list
(** Every resource's utilization at [lambda_g], sorted most-loaded
    first. *)

val bottleneck :
  ?variants:Variants.t ->
  system:Params.system ->
  message:Params.message ->
  unit ->
  entry
(** The resource with the lowest [saturates_at] (evaluated at a
    nominal light load; ρ is linear in λ_g so the ranking is
    load-independent). *)

val pp_resource : Format.formatter -> resource -> unit

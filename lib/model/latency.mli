(** The model's per-cluster breakdown, Eqs. (1)–(39), as records.

    Cluster [i]'s mean latency combines the intra- and inter-cluster
    components with the outgoing probability
    [U_i = 1 − (N_i − 1)/(N − 1)] (Eq. 2); the system latency is the
    node-weighted average over clusters (Eq. 3).

    This module is a view: {!evaluate} runs the {!Eval} kernel once
    and copies its per-class terms into one record per cluster and per
    ordered cluster pair.  It computes nothing itself, so every field
    is bit-identical to the kernel's own numbers. *)

type cluster_result = {
  cluster : int;
  nodes : int;
  u : float;                        (** Eq. (2) *)
  intra : Intra.breakdown;
  inter : Inter.breakdown option;   (** [None] for single-cluster systems *)
  combined : float;                 (** Eq. (1) *)
}

type t = {
  mean_latency : float;             (** Eq. (3); [infinity] past saturation *)
  clusters : cluster_result list;
}

val evaluate :
  ?variants:Variants.t ->
  ?outgoing:(int -> float) ->
  system:Params.system ->
  message:Params.message ->
  lambda_g:float ->
  unit ->
  t
(** Full evaluation with per-cluster breakdowns.  [outgoing]
    overrides Eq. (2)'s per-cluster outgoing probability — the hook
    {!Pattern} uses to model non-uniform destination patterns. *)

val mean :
  ?variants:Variants.t ->
  ?outgoing:(int -> float) ->
  system:Params.system ->
  message:Params.message ->
  lambda_g:float ->
  unit ->
  float
(** Just Eq. (3): {!Eval.mean_into} over a fresh workspace. *)

val saturation_rate :
  ?variants:Variants.t ->
  ?tol:float ->
  system:Params.system ->
  message:Params.message ->
  unit ->
  float
(** The traffic generation rate at which the model first diverges:
    {!Eval.saturation_rate}'s cold search over a fresh workspace. *)

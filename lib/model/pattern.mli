(** Extension of the model to non-uniform traffic — the future work
    the paper names in its conclusion.

    The model's only use of the destination distribution is through
    each cluster's outgoing probability [U_i] (Eq. 2 assumes uniform
    destinations).  Any destination pattern that remains symmetric
    within and across clusters is therefore modelled by replacing
    Eq. (2) with the pattern's own outgoing probability:

    - {b Uniform}: [U_i = 1 − (N_i − 1)/(N − 1)] (Eq. 2, the paper);
    - {b Local p}: a message stays in its own cluster with
      probability [p], so [U_i = 1 − p] wherever both local and
      remote destinations exist.

    Hotspot traffic breaks the symmetry assumptions (one node's
    ejection channel dominates), so it has no closed form here; use
    the simulator ({!Fatnet_workload.Destination.Hotspot}).

    A pattern enters the model as a workspace's [outgoing] override:
    [Eval.workspace ~outgoing:(fun cluster -> outgoing_probability p
    ~system ~cluster)], which is what
    {!Fatnet_scenario.Scenario.evaluator} builds for a scenario's
    [[pattern]] section. *)

type t =
  | Uniform
  | Local of { p_local : float } (** [p_local ∈ [0, 1]] *)

val outgoing_probability : t -> system:Params.system -> cluster:int -> float
(** The pattern's [U_i]. *)

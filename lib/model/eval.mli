(** The model kernel: Eqs. (1)–(39), evaluated on float registers.

    This module is the model's only interface and holds the only
    implementation of the latency equations.  A {!workspace} built
    once per [(system, message, variants, pattern)] groups the
    clusters into {e cluster classes} — clusters with bitwise-equal
    raw inputs: tree depth, ICN1 and ECN1 parameters and outgoing
    probability — and the ordered cluster pairs into {e pair classes}
    (source class, destination class), and precomputes every
    λ-invariant quantity.  {!mean_into} then evaluates each class
    once per λ, writes its terms into the workspace's {!terms}
    arrays, and replays the Eq. (35)/(38)/(1)/(3) sums in cluster and
    ascending-destination order.  The paper's organizations have
    three cluster types, so org_544's 240 ordered pairs reduce to
    nine pair classes.

    Every sum sees the operands of a per-pair evaluation in the
    per-pair order, so the results are bit-identical to the
    undeduplicated model; [test/reference_model.ml] keeps that model
    frozen and the property suites pin the mean, every {!terms} field
    and the {!Tail} fit against it.

    The stage walks and the sums run on local float refs, which
    ocamlopt keeps unboxed in registers, and the hot loops read the
    workspace's arrays unchecked only where a loop bound proves the
    index (DESIGN.md, "The model kernel", lists each bound): a
    {!mean_into} allocates nothing but its boxed result.

    Every reader indexes {!terms} after one {!mean_into}: {!tail}
    (the latency distribution), {!Utilization} (the per-resource ρ
    table) and the per-cluster breakdown that [fatnet model] and
    [examples/quickstart.ml] print, through [cluster_class] and
    [pair_class].

    Telemetry: each {!mean_into} and each {!tail} fit bumps
    [model_evaluations] once; {!saturation_rate} sets the
    [model_saturation_rate] gauge.

    A workspace is single-domain: it carries mutable scratch, so
    share one per domain, not across domains. *)

type workspace

val workspace :
  ?variants:Variants.t ->
  ?outgoing:(int -> float) ->
  system:Params.system ->
  message:Params.message ->
  unit ->
  workspace
(** Validate the system, classify its clusters and precompute all
    λ-invariant terms.  [outgoing] overrides Eq. (2) per cluster (the
    {!Pattern} extension); values outside [[0, 1]] raise.
    @raise Invalid_argument when the system fails validation. *)

val mean_into : workspace -> lambda_g:float -> float
(** Eq. (3) at [lambda_g]; [infinity] (or NaN in degenerate
    zero-outgoing corners) past saturation.  Allocates only the boxed
    result; also refreshes {!terms}.  @raise Invalid_argument on negative rates. *)

(** The kernel's terms at the last evaluated λ.  Per cluster class
    [a] (indexed by [cluster_class.(i)]), per pair class [p] (indexed
    by [pair_class.(i).(k)], cluster [i]'s [k]-th destination in
    ascending order, skipping [i]) and per cluster [i].  The arrays
    are the workspace's scratch: read them before the next
    evaluation on this workspace and never write them. *)
type terms = private {
  cluster_class : int array;  (** cluster → cluster class *)
  pair_class : int array array;  (** cluster, destination rank → pair class *)
  u : float array;  (** per cluster class: Eq. (2) *)
  lambda_icn1 : float array;  (** per cluster class: Eq. (7) *)
  eta_icn1 : float array;  (** per cluster class: Eq. (10) *)
  mean_distance : float array;  (** per cluster class: Eq. (9) *)
  intra_network : float array;  (** per cluster class: [T_in], Eq. (5) *)
  intra_waiting : float array;  (** per cluster class: [W_in], Eq. (18) *)
  intra_tail : float array;  (** per cluster class: [E_in], Eq. (19) *)
  intra_total : float array;  (** per cluster class: [L_in] *)
  lambda_ecn1 : float array;  (** per pair class: Eq. (22) *)
  lambda_icn2 : float array;  (** per pair class: Eq. (23) *)
  eta_ecn1 : float array;  (** per pair class: Eq. (24) *)
  eta_icn2 : float array;  (** per pair class: Eq. (25) *)
  pair_network : float array;  (** per pair class: [T_ex], Eq. (20) *)
  pair_waiting : float array;  (** per pair class: [W_ex], Eq. (31) *)
  pair_tail : float array;  (** per pair class: [E_ex], Eq. (33) *)
  cd_wait : float array;  (** per pair class: [2·W_c], Eq. (37) *)
  pair_latency : float array;  (** per pair class: [L_ex^(i,j)], Eq. (32) *)
  l_ex : float array;  (** per cluster: Eq. (35); unset for one cluster *)
  w_d : float array;  (** per cluster: Eq. (38); unset for one cluster *)
  inter_total : float array;  (** per cluster: Eq. (39); unset for one cluster *)
  combined : float array;  (** per cluster: Eq. (1) *)
}

val terms : workspace -> terms

val tail : workspace -> lambda_g:float -> Tail.t
(** The fitted latency-distribution mixture ({!Tail}) at [lambda_g],
    under the workspace's variants and outgoing probabilities: one
    kernel evaluation plus one shifted-exponential fit per class.
    The result shares its weights and class indices with the
    workspace and owns its per-class arrays. *)

val quantile : workspace -> lambda_g:float -> q:float -> float
(** [Tail.quantile (tail ws ~lambda_g) q]: the model's predicted
    latency quantile (e.g. [~q:0.99] for p99); [infinity] past
    saturation.  @raise Invalid_argument unless [0 < q < 1]. *)

val saturation_rate :
  ?state:Fatnet_numerics.Solver.bracket_state -> ?tol:float -> workspace -> float
(** The divergence rate.  Without [state] this runs the canonical
    cold search: bracket upward from 1e-9, then bisect the boundary.
    With [state], successive calls warm-start from the previous
    solve's bracket ({!Fatnet_numerics.Solver.boundary_warm}) — the
    first call against a fresh state still runs the cold sequence
    bit-for-bit. *)

(** Multicore batch evaluation: a persistent pool of OCaml 5 domains,
    each carrying its own {!workspace} cache and warm
    {!Fatnet_numerics.Solver.bracket_state}, fed by one atomic claim
    counter.  It is the process's only domain executor: the daemon's
    batches, the design-walk bench and the simulation sweeps of
    {!Fatnet_experiments.Sweep_engine} all run on it.

    {b Bit-identity:} {!Pool.map} over {!Pool.ctx_workspace} and
    {!mean_into} is bit-identical to a sequential {!mean_into} loop
    over the same inputs in input order, for any domain count and any
    task-to-domain assignment: output slots are addressed by input
    index, each value depends only on pure per-domain data plus λ,
    and IEEE-754 arithmetic is deterministic.  The property suite
    pins this across domain counts, shuffled orders and saturated
    points.  A warm saturation search on {!Pool.ctx_bracket} is the
    exception — warm brackets depend on each domain's solve history,
    so values are tol-accurate but not scheduling-independent. *)
module Pool : sig
  type t
  (** A pool of [domains - 1] worker domains plus the caller. *)

  type ctx
  (** A domain's slot in the pool: its id, its warm bracket state and
      its cached workspace.  Valid only inside the callback that
      received it. *)

  val recommended_domains : unit -> int
  (** [max 1 (Domain.recommended_domain_count ())] — the default pool
      size, and the documented default of every [--domains] flag. *)

  val create : ?domains:int -> unit -> t
  (** Spawn the worker domains ([domains] defaults to
      {!recommended_domains}; must be [>= 1]).  Pools are cheap to
      keep and expensive to churn — create one per phase, not one per
      batch. *)

  val domains : t -> int

  val busy_seconds : t -> float array
  (** Seconds each domain spent claiming and running tasks during the
      most recent {!map}, indexed by {!ctx_id} (all zero before the
      first).  A fresh copy; the sweep engine divides it by its wall
      time for per-domain occupancy. *)

  val shutdown : t -> unit
  (** Stop and join the workers.  Idempotent; {!map} afterwards
      raises. *)

  val with_pool : ?domains:int -> (t -> 'a) -> 'a
  (** [create], run, always [shutdown]. *)

  val map : t -> f:(ctx -> 'a -> 'b) -> 'a array -> 'b array
  (** Evaluate [f] over the array with all pool domains (the caller
      participates).  Tasks are claimed by atomic counter in input
      order; results land at their input index.  For the length of
      the map each worker runs under the caller's ambient
      {!Fatnet_obs.Trace} and its own metrics registry; those
      registries are absorbed into the caller's ambient registry
      after the join, and per-domain [pool_domain_occupancy] gauges
      are recorded.
      The first task exception is re-raised after the batch stops
      claiming new tasks.  One [map] at a time per pool — concurrent
      or nested calls raise [Invalid_argument]. *)

  val ctx_id : ctx -> int
  (** 0 for the caller, [1 .. domains - 1] for workers. *)

  val ctx_bracket : ctx -> Fatnet_numerics.Solver.bracket_state
  (** The domain's warm bracket state, for custom [f] that run
      saturation searches. *)

  val ctx_workspace :
    ctx ->
    ?variants:Variants.t ->
    system:Params.system ->
    message:Params.message ->
    unit ->
    workspace
  (** The domain's workspace for these inputs (Eq. (2) outgoing
      probabilities), rebuilt only when [(system, message, variants)]
      changes physical identity (1-slot cache per domain). *)
end

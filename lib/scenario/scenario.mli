(** One typed, serializable description of an experiment.

    A scenario fully determines an experiment: the system topology
    (Table-1 shape), the message parameters, the model variant
    readings, the traffic pattern, the simulation protocol, the
    replication stopping rule, and the load axis swept.  Every
    consumer — the analytical model, the discrete-event simulator,
    the sweep engine and every [fatnet] command — reads the same record,
    so a new workload is a new scenario value (or [.scn] file), not a
    new code path.

    Three renderings exist, with distinct stability contracts:

    {ul
    {- {b the text codec} ({!to_string}/{!of_string}): a
       human-writable, line-based, versioned format ([scenario 1]
       header).  Parse → print → parse is the identity; the printed
       form is canonical (floats render in the shortest form that
       round-trips exactly).}
    {- {b the canonical string} ({!canonical}): a one-line rendering
       with every float as the hex of its IEEE-754 bits.  Exact,
       platform-independent, and collision-free under rounding; the
       [name]/[title] labels are excluded, so renaming a scenario
       never changes its identity.}
    {- {b the hash} ({!hash}): a digest of {!canonical} prefixed with
       {!scenario_version}.  This is the identity the point cache
       keys on (see {!Fatnet_experiments.Point_cache}).}}

    Bump {!scenario_version} whenever the meaning of a field or the
    canonical rendering changes: old files are rejected with a clear
    error instead of being silently reinterpreted, and every cache
    entry is invalidated because the version prefixes the hash. *)

val scenario_version : int
(** Version of the text codec and the canonical/hash scheme (currently
    2: version 1 plus the replication convergence [target]). *)

val parseable_versions : int list
(** Header versions {!of_string} accepts.  Older versions parse with
    the semantics their fields had then (a v1 file reads back with
    [target = Mean]); the canonical identity always renders — and
    hashes — at {!scenario_version}. *)

(** {1 Components} *)

type cd_mode =
  | Cut_through
      (** C/Ds forward flits as they arrive, absorbing them into their
          buffer while the next network is blocked (the paper's
          "simple bi-directional buffers", and the mode whose
          latencies the merged-pipeline model, Eq. (20), describes). *)
  | Store_and_forward  (** C/Ds queue whole messages (ablation). *)

type protocol = {
  warmup : int;    (** messages generated before statistics start *)
  measured : int;  (** messages included in statistics *)
  drain : int;     (** extra messages generated after the measured batch *)
  seed : int64;    (** base PRNG seed *)
  cd_mode : cd_mode;
  streaming : bool;  (** use the engine's closed-form streaming fast path *)
}
(** The simulator's Section-4 run protocol, read by
    {!Fatnet_sim.Runner.run_scenario} (the destination pattern lives
    in the scenario itself; trace sinks and telemetry registries are
    attached at run time). *)

type target =
  | Mean  (** converge the replication-level CI on the mean latency *)
  | Quantile of float
      (** converge on one of the fixed quantile-ladder estimates
          (0.5, 0.9, 0.99 or 0.999) — the Student-t interval is taken
          over the per-replication P² estimates of that quantile *)

type replication = {
  target_rel : float;  (** stop at this relative CI half-width *)
  confidence : float;  (** CI confidence level, e.g. [0.95] *)
  min_reps : int;      (** replications always run *)
  max_reps : int;      (** hard cap *)
  target : target;     (** the statistic the CI is taken over *)
}
(** Stopping rule for CI-adaptive independent replications, read by
    {!Fatnet_sim.Runner.run_point} from a scenario's [replication]
    field. *)

type load =
  | Fixed of float
      (** One operating point: the per-node generation rate λ_g. *)
  | Linear of { lambda_max : float; steps : int }
      (** The figures' sweep axis: [steps] points
          [lambda_max·(i+1)/steps], i = 0..steps−1. *)

type t = {
  name : string;   (** short identifier, e.g. ["fig3"]; not hashed *)
  title : string;  (** human description; not hashed *)
  system : Fatnet_model.Params.system;
  message : Fatnet_model.Params.message;
  variants : Fatnet_model.Variants.t;
  pattern : Fatnet_workload.Destination.t;
  protocol : protocol;
  replication : replication option;  (** [None] = one run per point *)
  load : load;
}

(** {1 Construction} *)

val default_protocol : protocol
(** The paper's protocol: 10_000 / 100_000 / 10_000 messages, a fixed
    seed, cut-through C/Ds, streaming on. *)

val quick_protocol : protocol
(** The scaled-down 1_000 / 10_000 / 1_000 protocol for tests and
    fast sweeps. *)

val make :
  ?name:string ->
  ?title:string ->
  ?variants:Fatnet_model.Variants.t ->
  ?pattern:Fatnet_workload.Destination.t ->
  ?protocol:protocol ->
  ?replication:replication ->
  system:Fatnet_model.Params.system ->
  message:Fatnet_model.Params.message ->
  load:load ->
  unit ->
  t
(** Build and validate a scenario (defaults: [Variants.default],
    uniform destinations, {!default_protocol}, no replication).
    @raise Invalid_argument when {!validate} fails. *)

(** {1 Validation} *)

val validate : t -> (unit, string) result
(** Check every invariant, with the offending field in the message
    (e.g. ["system: m must be even and >= 2"],
    ["protocol.measured: must be >= 1"]). *)

val validate_exn : t -> unit
(** @raise Invalid_argument when {!validate} fails. *)

(** {1 The load axis} *)

val lambdas : t -> float list
(** The operating points of the load axis, in sweep order. *)

val at : t -> float -> t
(** The same scenario pinned to one operating point
    ([load = Fixed lambda_g]). *)

val points : t -> t list
(** One fixed-load scenario per operating point:
    [List.map (at t) (lambdas t)]. *)

val fixed_lambda : t -> float option
(** The rate when the load is [Fixed], else [None]. *)

val require_lambda : ?lambda_g:float -> t -> float
(** [lambda_g] when given, else the scenario's fixed rate.
    @raise Invalid_argument on a swept axis with no override. *)

(** {1 The analytical model} *)

val evaluator : t -> Fatnet_model.Eval.workspace
(** The scenario's way into the model: an allocation-free
    {!Fatnet_model.Eval} workspace for its system, message, variants
    and traffic pattern — build once per scenario, then
    [Eval.mean_into], [Eval.quantile] or [Eval.terms] per operating
    point.  [Local] patterns use the {!Fatnet_model.Pattern}
    extension; [Hotspot] has no closed form and falls back to uniform
    (use the simulator for hotspot predictions). *)

val memo_key : t -> string
(** The scenario's model-memo key: {!hash} with the load axis
    normalised away, so every [at t λ] point of one scenario shares
    memo entries (λ is keyed separately, by its IEEE-754 bits). *)

val saturation_rate : ?state:Fatnet_numerics.Solver.bracket_state -> t -> float
(** The model's divergence rate for {!evaluator}'s workspace: the
    scenario's variants and traffic pattern (a uniform pattern is the
    figures' Eq. (2)).  Without [state]
    this is the canonical cold search; with [state], successive calls
    over nearby scenarios warm-start from the previous bracket. *)

(** {1 Text codec} *)

val to_string : t -> string
(** Render as the versioned [.scn] text format (see DESIGN.md,
    "Scenario subsystem", for the schema).  [of_string (to_string t)
    = Ok t] for every valid [t]. *)

val of_string : string -> (t, string) result
(** Parse the text format.  Errors carry the line number and field
    (["line 7: [system] cluster: expected ..."]).  Parsing does not
    validate; callers wanting both use {!load} or run {!validate}. *)

val save : path:string -> t -> unit
(** Write [to_string] to [path]. *)

val load : string -> (t, string) result
(** Read, parse and validate a [.scn] file; every error message is
    prefixed with the path. *)

(** {1 Identity} *)

val canonical : t -> string
(** Canonical one-line rendering of every semantic field ([name] and
    [title] excluded), floats as IEEE-754 bit hex. *)

val hash : t -> string
(** Hex digest of {!canonical}, prefixed with {!scenario_version}.
    Equal scenarios (up to naming) hash equally on every platform;
    any semantic change — or a version bump — changes the hash. *)

val pp : Format.formatter -> t -> unit
(** One-line human summary. *)

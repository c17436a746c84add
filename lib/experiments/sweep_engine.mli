(** Sweep orchestration engine.

    The unit of work users wait on is a figure sweep: dozens of
    fixed-load scenarios, each an independent simulation.  The engine
    serves what it already knows and runs the rest on the domain pool:

    {ul
    {- {b one claim counter}: the points no memo or cache serves run
       on {!Fatnet_model.Eval.Pool}, each free domain claiming the
       next one in input order;}
    {- {b a persistent point cache} ({!Point_cache}): results are
       keyed by a canonical, bit-exact hash of the full run
       configuration, so regenerating a figure recomputes only points
       whose configuration actually changed;}
    {- {b one simulated point} ({!Fatnet_sim.Runner.run_point}): each
       miss runs under its scenario's own stopping rule — one run, or
       CI-adaptive replications with a futility stop — and yields the
       {!Fatnet_sim.Runner.point} record that the cache stores and the
       memo holds.}}

    Results are positionally identical to a sequential sweep: every
    point's outcome is a pure function of its own configuration, so
    the output is bit-identical across domain counts and across cache
    hits vs. recomputation (pinned by the integration tests).

    {b Failure semantics.}  A sweep survives faults instead of dying
    with them.  A point whose execution raises is retried up to
    [retries] extra times; one that exhausts the budget is
    {e quarantined} — reported in {!outcome.quarantined} with its
    input index, offered load, attempt count, and final exception —
    while every other point's result is kept.  Any cache I/O failure
    (find, store, or the atomic rename) disables the cache for the
    rest of the sweep after one [warning:] line on stderr; the sweep
    then recomputes instead of failing.  Survivors are bit-identical
    to a fault-free run: a retry re-runs the scenario with its own
    seed, so faults cost work, never results (pinned by the
    fault-injection suite).  [fail_fast] restores the old
    all-or-nothing behavior: the first exhausted point stops every
    domain from starting new points and the sweep raises
    {!Failures}. *)

type cache_policy =
  | No_cache
  | Cache_dir of string  (** directory holding [*.point] entries *)

type config = {
  domains : int option;
      (** worker domains; [None] = the runtime's recommendation *)
  cache : cache_policy;
  tracer : Fatnet_obs.Trace.t;
      (** causal span trace ({!Fatnet_obs.Trace.disabled} by default).
          When enabled the sweep records a span hierarchy — a [sweep]
          root, one [point] span per executed point (with its index,
          offered load, outcome, and attempt count), [attempt] spans
          under it, [cache.find]/[cache.store] spans, and instant
          [point] markers for memo- and cache-served points — and the
          tracer is every pool domain's ambient for the sweep, so the
          simulator's and solver's spans nest underneath.  The span
          tracer observes only: caches stay active and a traced sweep
          is bit-identical to an untraced one, cache entries included
          (pinned by test). *)
  metrics : Fatnet_obs.Metrics.t;
      (** telemetry registry ({!Fatnet_obs.Metrics.disabled} by
          default).  When enabled the sweep records scheduler and
          cache statistics (points, hit/miss/store timings,
          per-domain occupancy) and gives each pool domain its own
          registry — installed as that domain's ambient, so
          simulator and solver metrics flow too — absorbing them all
          into this registry after the join.  Cached points
          contribute cache metrics only, executed points contribute
          simulator metrics. *)
  retries : int;
      (** extra attempts per failing point before quarantine
          (default 2; 0 = no retries) *)
  fail_fast : bool;
      (** abort the sweep on the first exhausted point and raise
          {!Failures} instead of quarantining (default [false]) *)
  faults : Fault.t;
      (** deterministic fault-injection plan ({!Fault.none} by
          default) — test plumbing; see {!Fault} *)
  memo : Fatnet_sim.Runner.point Fatnet_numerics.Memo.t option;
      (** sharded in-memory memo sitting {e above} the disk cache,
          keyed by the same canonical point hash ([None] by default).
          A memo hit costs a hashtable probe instead of a file read;
          computed and disk-loaded points are stored back, so a memo
          shared across sweeps (one per CLI invocation, typically)
          makes repeated figure/ablation points O(lookup).  Explicit
          rather than process-global so fault-injection semantics
          stay intact and a default-config sweep is memo-free. *)
}

val default_config : config
(** Recommended domains, caching under {!Point_cache.default_dir},
    no tracer, 2 retries, no fail-fast, no faults, no memo. *)

type stats = {
  points : int;
  executed : int;      (** points actually simulated (misses) *)
  memo_hits : int;     (** points served by the in-memory memo *)
  cache_hits : int;    (** points served by the on-disk cache *)
  domains_used : int;
  occupancy : float array;
      (** per-domain fraction of the sweep wall time spent executing
          points (the pool's {!Fatnet_model.Eval.Pool.busy_seconds}
          over the sweep's wall time) *)
  wall_seconds : float;
  retries : int;       (** failed attempts that were retried *)
  quarantined : int;   (** points that exhausted their retry budget *)
  cache_degraded : bool;
      (** the cache was on and a cache I/O failure turned it off *)
}

type failure = {
  index : int;          (** the point's position in the input list *)
  lambda_g : float option;
      (** the point's offered load, when it is a fixed-load point *)
  attempts : int;       (** attempts made, including the first *)
  error : exn;          (** the last attempt's exception *)
}

exception Point_failure of failure
(** One quarantined point as an exception, for its registered
    printer: ["point 3 (lambda_g=0.7) failed after 3 attempts: ..."].
    The CLI prints each entry of {!Failures} through it. *)

exception Failures of failure list
(** Raised by strict callers ({!results_exn}, [fail_fast]) when
    points were quarantined: every failure, sorted by input index. *)

type outcome = {
  results : Fatnet_sim.Runner.point option array;
      (** positionally aligned with the input; [None] exactly for
          quarantined points (and, under [fail_fast], points never
          started) *)
  quarantined : failure list;  (** sorted by input index *)
  stats : stats;
}

val run : ?config:config -> Fatnet_scenario.Scenario.t list -> outcome
(** Run every point — a fixed-load scenario; each carries its own
    protocol and replication rule.  [results.(i)] corresponds to the
    [i]-th input point regardless of scheduling.  A failing point is
    retried, then quarantined (see the failure semantics above);
    [run] itself raises only under [fail_fast] ({!Failures}). *)

val results_exn : outcome -> Fatnet_sim.Runner.point array
(** The dense result array for strict callers.  Raises {!Failures}
    if anything was quarantined. *)

val run_sweep : ?config:config -> Fatnet_scenario.Scenario.t -> outcome
(** Expand one scenario's load axis
    ({!Fatnet_scenario.Scenario.points}) and run every operating
    point. *)

val mean_latencies :
  ?config:config -> Fatnet_scenario.Scenario.t list -> float list
(** Just each point's mean latency, in input order. *)

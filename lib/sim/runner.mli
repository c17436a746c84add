(** End-to-end simulation runs following the paper's validation
    protocol (Section 4): Poisson generation at every node,
    destinations drawn from the scenario's traffic pattern, a warm-up
    batch excluded from statistics, a measured batch, and a drain
    batch generated but not measured so the measured messages finish
    under realistic load.

    A {!Fatnet_scenario.Scenario.t} carries everything a run needs —
    system, message, pattern and protocol (batch sizes, seed, C/D
    mode, streaming) — so the two functions below are the simulator's
    only entry points.  A trace sink and a telemetry registry are
    run-time plumbing, never part of a scenario's identity, so they
    come as optional arguments. *)

type trace_record = {
  serial : int;          (** generation order, 0-based *)
  src : int;             (** global node id *)
  dst : int;
  generated_at : float;
  delivered_at : float;
  is_intra : bool;
  measured : bool;       (** inside the measured batch *)
}
(** One delivered message, as observed by the per-node "sink modules"
    the paper's Section 4 describes. *)

type result = {
  latency : Fatnet_stats.Summary.t;       (** measured messages, all classes *)
  intra_latency : Fatnet_stats.Summary.t; (** measured intra-cluster messages *)
  inter_latency : Fatnet_stats.Summary.t; (** measured inter-cluster messages *)
  ci95_half_width : float;
      (** 95% batch-means confidence half-width on the mean latency
          (30 batches over the measured messages); [nan] when too few
          samples *)
  generated : int;
  delivered : int;       (** of the measured batch *)
  end_time : float;      (** simulation clock when the network drained *)
  events : int;          (** engine events processed *)
  wall_seconds : float;
  bottlenecks : (string * float) list;
      (** the five busiest channels (description, fraction of the run
          they were reservation-held) — where the system saturates *)
}

val run_scenario :
  ?trace:(trace_record -> unit) ->
  ?metrics:Fatnet_obs.Metrics.t ->
  ?lambda_g:float ->
  Fatnet_scenario.Scenario.t ->
  result
(** Simulate the scenario's system under its message, pattern and
    protocol at per-node generation rate [lambda_g] (messages per time
    unit) when given, else at the scenario's [Fixed] load.  Runs until
    the network fully drains.  [trace] is called at every delivery
    (all batches), e.g. to stream a message trace to CSV.  [metrics]
    ({!Fatnet_obs.Metrics.disabled} by default) records, when enabled,
    channel-utilisation and blocking histograms by network and tree
    level, C/D backlog samples, peak queue depth and messages in
    flight, phase end times and message/event counters; telemetry
    never changes the event schedule, so the delivered-time stream is
    bit-identical with metrics on or off.  With [protocol.streaming]
    off the engine runs its per-flit state machine: same trace, more
    events.
    @raise Invalid_argument on a swept load axis with no [lambda_g],
    a rate that is not positive, or batch sizes that
    {!Fatnet_scenario.Scenario.validate} would reject. *)

type replicated = {
  merged : Fatnet_stats.Summary.t;
      (** all measured latencies pooled across replications
          ({!Fatnet_stats.Summary.merge}: moments merged exactly;
          each ladder quantile is the count-weighted average of the
          per-replication P² estimates) *)
  rep_targets : float list;
      (** per-replication values of the stopping rule's target
          statistic, in order *)
  target : Fatnet_scenario.Scenario.target;  (** the statistic [rep_targets] carries *)
  replications : int;
  rep_ci_half_width : float;
      (** Student-t half-width over [rep_targets] at the spec's
          confidence; [nan] with a single replication *)
  total_events : int;
  total_generated : int;
  total_delivered : int;
  rep_wall_seconds : float;     (** summed wall time of the replications *)
}

val run_replicated_scenario :
  ?trace:(trace_record -> unit) ->
  ?metrics:Fatnet_obs.Metrics.t ->
  ?lambda_g:float ->
  replication:Fatnet_scenario.Scenario.replication ->
  Fatnet_scenario.Scenario.t ->
  replicated
(** Independently seeded replications of {!run_scenario} until the
    [replication] rule stops.  The scenario's protocol is the
    {e per-replication} protocol; replication [k] runs with the [k]-th
    output of a SplitMix64 stream seeded with [protocol.seed], so the
    sequence of replication results is a pure function of the
    scenario and the rule.  The scenario's own [replication] field is
    not read: [replication] is the rule.

    After [min_reps] replications the run stops when the Student-t
    interval over the per-replication target statistics (means, or
    one ladder quantile's P² estimates) is relatively tighter than
    [target_rel].  It also stops on {e futility}: when the half-width
    projected at [max_reps] (standard error shrinking like
    [1/sqrt k], the Student-t critical value relaxing to the cap's)
    still misses [target_rel], so hopeless (saturated, high-variance)
    points do not burn the whole budget.  The decision depends only
    on the point's own replication outputs, never on scheduling, so
    adaptive runs stay deterministic.
    @raise Invalid_argument unless [1 <= min_reps <= max_reps] and
    [target_rel > 0], and as {!run_scenario}. *)

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

type point = {
  summary : Fatnet_stats.Summary.t;
      (** the measured latencies; with replications, pooled across
          them ({!Fatnet_stats.Summary.merge}: moments merged exactly,
          each ladder quantile the count-weighted average of the
          per-replication P² estimates) *)
  ci_half_width : float;
      (** with replications, the Student-t half-width over the
          per-replication target statistics at the rule's confidence;
          else the run's batch-means half-width; [nan] when either
          has too few samples *)
  replications : int;
  events : int;  (** engine events, summed over the replications *)
}
(** One simulated operating point: what the sweep engine returns, the
    point cache stores and the daemon's [point] op answers. *)

val run_point : ?metrics:Fatnet_obs.Metrics.t -> Fatnet_scenario.Scenario.t -> point
(** Simulate a fixed-load scenario under its own stopping rule.  With
    [replication = None] it is one {!run_scenario}: its batch-means
    CI, one replication and its event count.

    With [Some rule] it runs independently seeded replications of
    {!run_scenario} until the rule stops.  The scenario's protocol is
    the {e per-replication} protocol; replication [k] runs with the
    [k]-th output of a SplitMix64 stream seeded with [protocol.seed],
    so the sequence of replication results is a pure function of the
    scenario.  After [min_reps] replications the run stops when the
    Student-t interval over the per-replication target statistics
    (means, or one ladder quantile's P² estimates) is relatively
    tighter than [target_rel].  It also stops on {e futility}: when
    the half-width projected at [max_reps] (standard error shrinking
    like [1/sqrt k], the Student-t critical value relaxing to the
    cap's) still misses [target_rel], so hopeless (saturated,
    high-variance) points do not burn the whole budget.  The decision
    depends only on the point's own replication outputs, never on
    scheduling, so adaptive runs stay deterministic.
    @raise Invalid_argument unless [1 <= min_reps <= max_reps] and
    [target_rel > 0], and as {!run_scenario}. *)

(** The paper's validation experiments, one spec per figure.

    Figs. 3–6 plot mean message latency against the traffic
    generation rate for the two Table-1 organizations and two
    message/flit sizes, overlaying the analytical model and the
    simulation.  Fig. 7 is a model-only design-space study: ICN2
    bandwidth increased by 20 %.

    Every curve carries a full {!Fatnet_scenario.Scenario.t}; figures
    3–6 are each generated from one {e base} scenario via
    {!of_scenario}, so a figure loaded from its checked-in
    [examples/*.scn] file is structurally equal to the in-code preset
    (pinned by the integration tests — this is what makes the
    scenario-file path bit-for-bit identical to the preset path). *)

type curve = {
  label : string;
  scenario : Fatnet_scenario.Scenario.t;
      (** full experiment description; its load axis is the figure's
          sweep *)
  simulate : bool;  (** paper overlays a simulation for this curve *)
}

type spec = {
  id : string;          (** e.g. ["fig3"] *)
  title : string;       (** e.g. ["N=1120, m=8, M=32"] *)
  lambda_max : float;   (** right edge of the paper's x axis *)
  curves : curve list;
}

val default_steps : int
(** Load-axis steps recorded in the preset scenarios ([fatnet fig]'s
    default [--sim-steps]). *)

val of_scenario : Fatnet_scenario.Scenario.t -> spec
(** The paper's validation-figure shape fanned out from one base
    scenario: two simulated curves, [Lm=256] and [Lm=512] (the base's
    flit size is replaced by each).  [id]/[title] come from the
    scenario's [name]/[title]; [lambda_max] from its load axis. *)

val to_scenario : spec -> Fatnet_scenario.Scenario.t option
(** The inverse of {!of_scenario} — the base scenario of a
    validation-shaped spec (the [Lm=256] curve's), or [None] for
    specs that are not two flit-size variants of one scenario
    (e.g. {!fig7}). *)

val fig3 : spec
val fig4 : spec
val fig5 : spec
val fig6 : spec
val fig7 : spec

val all : spec list

val find : string -> spec option
(** Look up a spec by id. *)

val model_series :
  ?variants:Fatnet_model.Variants.t -> spec -> steps:int -> Fatnet_report.Series.t list
(** One analytical series per curve, [steps] points on
    [[lambda_max/steps, lambda_max]], each under its curve scenario's
    variants unless [variants] overrides.  Saturated points carry
    [infinity] (filter with {!Fatnet_report.Series.finite}). *)

val sim_summaries_stats :
  ?engine:Sweep_engine.config ->
  spec ->
  steps:int ->
  (string * (float * Fatnet_stats.Summary.t) list) list * Sweep_engine.stats
(** The simulation side of a figure, with the engine's
    scheduler/cache statistics: every (curve, λ) point of each curve
    with [simulate = true], dispatched as one fixed-load scenario
    batch through {!Sweep_engine.run}.  Per simulated curve: its label
    and the (λ, merged distribution-carrying summary) grid.  Each
    point runs under its curve scenario's own protocol and replication
    rule (the presets carry the paper's 10k/100k/10k protocol; the
    caller sizes them, as [fatnet fig] does); [engine] configures
    scheduling/caching (default uncached, recommended domains).
    Results are bit-identical to a sequential sweep regardless of
    domains or caching.  One engine batch feeds both the mean and the
    quantile projections, so a figure and its tail family cost one
    sweep. *)

val mean_series_of_summaries :
  (string * (float * Fatnet_stats.Summary.t) list) list -> Fatnet_report.Series.t list
(** Project the mean out of {!sim_summaries_stats} output: one
    ["sim <label>"] series per simulated curve. *)

val quantile_series_of_summaries :
  q:float ->
  (string * (float * Fatnet_stats.Summary.t) list) list ->
  Fatnet_report.Series.t list
(** Project a ladder quantile (0.5, 0.9, 0.99 or 0.999) out of
    {!sim_summaries_stats} output.  Points whose summaries carry no
    quantile state (merged from zero-count replications) come out as
    NaN.  @raise Invalid_argument off the ladder
    (see {!Fatnet_stats.Summary.quantile}). *)

val quantile_name : float -> string
(** ["p50"], ["p90"], ["p99"], ["p999"] for the ladder (and
    ["p<100q>"] otherwise) — the suffix used in series names and
    {!quantile_id}. *)

val quantile_id : spec -> q:float -> string
(** The tail-family output id, e.g. [quantile_id fig5 ~q:0.99 =
    "fig5-p99"] — the CSV written next to the figure's mean CSV. *)

val model_quantile_series :
  ?variants:Fatnet_model.Variants.t -> spec -> steps:int -> q:float -> Fatnet_report.Series.t list
(** One predicted-quantile series per curve: a
    {!Fatnet_model.Tail} mixture fitted at each grid point and read
    at [q].  Saturated points carry [infinity], mirroring
    {!model_series}. *)

val light_load_error : spec -> (string * float) list
(** The paper's Section-4 claim check: per simulated curve, the
    relative model-vs-simulation error at 10 % and 25 % of that
    curve's saturation rate, averaged — the "light traffic" regime
    where the paper reports 4–8 %.  Each curve simulates under its
    own scenario's protocol and replication rule; every curve's two
    points run as one uncached {!Sweep_engine.run} batch on the
    recommended domains. *)

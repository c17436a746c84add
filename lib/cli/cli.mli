(** Shared command-line vocabulary for the three binaries.

    [cluster_model], [cluster_sim] and [experiments] accept the same
    experiment-description flags — [--scenario FILE] plus overrides
    ([--org], [--clusters], [--m-flits], …) — and [experiments]'
    sweep-orchestration knobs ([--seed], [--domains], [--cache-dir],
    [--precision], …).  This module is their single definition, so
    the binaries cannot drift, and the single place where scenario
    and parameter validation failures become friendly [Error]
    messages instead of [Invalid_argument] backtraces. *)

(** {1 Error boundary} *)

val guard : (unit -> (int, string) result) -> int
(** Run a command body, mapping failures to friendly [error: …] lines
    on stderr instead of backtraces: [Error msg], [Invalid_argument]
    and [Failure] (usage/validation problems) exit 2;
    [Fatnet_experiments.Sweep_engine.Failures] (one line per failed
    sweep point, naming its input index, offered load, and attempt
    count)
    and [Sys_error] (I/O problems) exit 1. *)

(** {1 Scenario selection: [--scenario] + override flags} *)

val scenario_file : string option Cmdliner.Term.t
(** [--scenario FILE]: read the experiment description from a [.scn]
    file; the other flags below override its fields. *)

type system_opts = {
  org : string option;       (** [--org]: Table-1 preset, [1120] or [544] *)
  clusters : int option;     (** [--clusters] (homogeneous build) *)
  depth : int option;        (** [--depth] (homogeneous build) *)
  arity : int option;        (** [--arity] (homogeneous build) *)
}

val system_opts : system_opts Cmdliner.Term.t

val system_given : system_opts -> bool
(** Whether any system flag was passed (and should override a loaded
    scenario's topology). *)

val build_system : system_opts -> (Fatnet_model.Params.system, string) result
(** [--org] wins; otherwise a homogeneous system from
    [--clusters]/[--depth]/[--arity] (defaults 4/2/4) on the Table-2
    networks.  Validation failures come back as [Error]. *)

type message_opts = {
  m_flits : int option;      (** [--m-flits]: message length M *)
  flit_bytes : float option; (** [--flit-bytes]: flit size d_m *)
}

val message_opts : message_opts Cmdliner.Term.t

val resolve :
  ?default_load:Fatnet_scenario.Scenario.load ->
  ?default_protocol:Fatnet_scenario.Scenario.protocol ->
  scenario:string option ->
  system:system_opts ->
  message:message_opts ->
  unit ->
  (Fatnet_scenario.Scenario.t, string) result
(** The binaries' common front door.  With [--scenario FILE], load
    and validate the file, then apply any system/message override
    flags (re-validating; errors are prefixed with the file path).
    Without it, build a scenario from the flags alone, defaulting to
    M=32, d_m=256, [default_load] (default [Fixed 1e-4]) and
    [default_protocol] (default
    {!Fatnet_scenario.Scenario.default_protocol}). *)

(** {1 Parallelism} *)

val domains_arg : int option Cmdliner.Term.t
(** [--domains N] — the single spelling of the worker-count flag
    across all binaries (there is no [--jobs]).  [None] means the
    runtime's recommended domain count
    ({!Fatnet_model.Eval.Pool.recommended_domains}), which is the
    documented default everywhere: the sweep scheduler and the
    model-evaluation pool both resolve it the same way.
    {!sweep_opts} embeds this same term as its [domains] field. *)

val resolve_domains : int option -> (int, string) result
(** The flag's value as a concrete pool size: [None] → the
    recommended domain count; a non-positive request is a friendly
    [Error]. *)

(** {1 Sweep orchestration flags} *)

type sweep_opts = {
  domains : int option;  (** [--domains] *)
  no_cache : bool;       (** [--no-cache] *)
  cache_dir : string;    (** [--cache-dir] *)
  precision : float;     (** [--precision]; [<= 0] disables adaptive reps *)
  min_reps : int;        (** [--min-reps] *)
  max_reps : int;        (** [--max-reps] *)
  seed : int64;          (** [--seed] *)
  target : Fatnet_scenario.Scenario.target;
      (** [--target mean] (default) or [--target quantile:p99]-style:
          the statistic the CI-adaptive stopping rule converges *)
  retries : int;         (** [--retries]: extra attempts before quarantine *)
  fail_fast : bool;      (** [--fail-fast]: abort on first exhausted point *)
  inject_faults : string option;
      (** [--inject-faults SPEC]: deterministic fault injection for
          testing; see {!Fatnet_experiments.Fault.of_spec} *)
}

val sweep_opts : sweep_opts Cmdliner.Term.t

val engine_of_opts :
  ?trace:(Fatnet_sim.Runner.trace_record -> unit) ->
  ?tracer:Fatnet_obs.Trace.t ->
  ?metrics:Fatnet_obs.Metrics.t ->
  sweep_opts ->
  Fatnet_experiments.Sweep_engine.config
(** Scheduler/cache/resilience configuration from the flags,
    including a fresh in-memory point memo shared by every sweep run
    against this config ([--no-cache] disables it along with the disk
    cache).  [tracer] is the span trace from {!tracer_of_opts}
    (default disabled).  Raises [Failure] (which {!guard} renders as
    a usage error) on a malformed [--inject-faults] spec. *)

val replication_of_opts : sweep_opts -> Fatnet_scenario.Scenario.replication option
(** [Some] when [--precision] is positive (95 % confidence,
    [--min-reps]/[--max-reps] bounds, [--target] statistic). *)

val protocol_of_opts :
  base:Fatnet_scenario.Scenario.protocol ->
  sweep_opts ->
  Fatnet_scenario.Scenario.protocol
(** [base] with the [--seed] flag applied. *)

(** {1 Telemetry flags: [--metrics] / [--metrics-format]} *)

type metrics_format = Metrics_json | Metrics_prometheus | Metrics_table

type metrics_opts = {
  metrics_file : string option;
      (** [--metrics \[FILE\]]; [None] disables telemetry entirely *)
  metrics_format : metrics_format;  (** [--metrics-format], default json *)
}

val default_metrics_file : string
(** ["results/metrics.json"] — where a bare [--metrics] writes, and
    where [experiments report] reads from by default. *)

val metrics_opts : metrics_opts Cmdliner.Term.t

val metrics_registry : metrics_opts -> Fatnet_obs.Metrics.t
(** A fresh enabled registry when [--metrics] was given,
    {!Fatnet_obs.Metrics.disabled} otherwise — pass it to the runner,
    sweep engine, or install it as the ambient registry. *)

val render_metrics : metrics_opts -> Fatnet_obs.Metrics.Snapshot.t -> string
(** The snapshot in the format [--metrics-format] selects. *)

val write_metrics : metrics_opts -> Fatnet_obs.Metrics.t -> unit
(** Snapshot the registry and write it to [--metrics]'s FILE ([-] for
    stdout), creating parent directories; a no-op without
    [--metrics].  Logs the destination to stderr. *)

(** {1 Tracing flags: [--trace] / [--quiet]} *)

type trace_opts = {
  trace_file : string option;
      (** [--trace \[FILE\]]; [None] = no trace file *)
  quiet : bool;  (** [--quiet]: errors only, no progress line *)
}

val default_trace_file : string
(** ["results/trace.json"] — where a bare [--trace] writes. *)

val trace_opts : trace_opts Cmdliner.Term.t

val apply_quiet : trace_opts -> unit
(** Raise the log threshold to errors-only when [--quiet] was
    given.  Idempotent; called by {!tracer_of_opts}. *)

val progress_wanted : trace_opts -> bool
(** Whether a live progress line should render: stderr is a TTY and
    [--quiet] was not given. *)

val tracer_of_opts : ?progress:bool -> trace_opts -> Fatnet_obs.Trace.t
(** An enabled trace when [--trace] was given — or when [progress]
    is set and {!progress_wanted} holds, since the progress reporter
    subscribes to the span stream — otherwise
    {!Fatnet_obs.Trace.disabled}.  Also applies [--quiet] to the log
    threshold. *)

val write_trace : trace_opts -> Fatnet_obs.Trace.t -> unit
(** Export the trace as Chrome trace-event JSON to [--trace]'s FILE
    ([-] for stdout), creating parent directories; a no-op without
    [--trace].  Logs the destination to stderr. *)

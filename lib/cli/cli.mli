(** The one command line of [fatnet].

    Every flag of every [fatnet] subcommand is declared here, once, so
    one name means one thing everywhere.  {!apply} is the one rule
    that turns a base scenario (a [.scn] file, a figure preset, or the
    scenario built from [--org]/[--clusters]/…) and the flags given
    into the scenario a command runs: each flag replaces only the
    field it names, and only when it is given; a flag that cannot
    take effect is a usage error.  {!exits} is the one exit-code table
    and {!guard} the one place where failures become exit codes and
    one-line [error: …] messages instead of backtraces. *)

(** {1 Exit codes and the error boundary} *)

val exits : Cmdliner.Cmd.Exit.info list
(** 0 success; 1 runtime failure (I/O, a socket, a failed sweep
    point); 2 usage or validation error; 3 a sweep that finished with
    quarantined points; 124 and 125 are cmdliner's own (command-line
    parse error, uncaught exception). *)

val guard : (unit -> (int, string) result) -> int
(** Run a command body and map its outcome onto {!exits}: [Ok code]
    is [code]; [Error msg], [Invalid_argument] and [Failure] exit 2;
    [Sys_error], [Unix.Unix_error] (naming the call and its argument)
    and [Fatnet_experiments.Sweep_engine.Failures] (one line per
    failed point, naming its input index, offered load and attempt
    count) exit 1.  Every message is one [error: …] line on stderr. *)

val command :
  string -> doc:string -> (unit -> (int, string) result) Cmdliner.Term.t -> int Cmdliner.Cmd.t
(** A subcommand whose body runs under {!guard} and whose help lists
    {!exits}. *)

val with_address : string -> (unit -> 'a) -> 'a
(** Run a socket operation, naming [address] in any [Unix.Unix_error]
    it raises without an argument (as [connect] and [bind] do). *)

(** {1 Scenario flags} *)

val scenario_file : string option Cmdliner.Term.t
(** [--scenario FILE]: the base scenario. *)

type system_opts = {
  org : string option;       (** [--org]: Table-1 preset, [1120] or [544] *)
  clusters : int option;     (** [--clusters] (homogeneous build) *)
  depth : int option;        (** [--depth] (homogeneous build) *)
  arity : int option;        (** [--arity] (homogeneous build) *)
}

val system_opts : system_opts Cmdliner.Term.t

type message_opts = {
  m_flits : int option;      (** [--m-flits]: message length M *)
  flit_bytes : float option; (** [--flit-bytes]: flit size d_m *)
}

val message_opts : message_opts Cmdliner.Term.t

type pattern_opts = {
  hotspot : int option;             (** [--hotspot NODE] *)
  hotspot_fraction : float option;  (** [--hotspot-fraction F] *)
  p_local : float option;           (** [--p-local P] *)
}

val pattern_opts : pattern_opts Cmdliner.Term.t

type replication_opts = {
  precision : float option;  (** [--precision REL]; [<= 0] = one run per point *)
  min_reps : int option;     (** [--min-reps] *)
  max_reps : int option;     (** [--max-reps] *)
  target : Fatnet_scenario.Scenario.target option;  (** [--target] *)
}

val replication_opts : replication_opts Cmdliner.Term.t

val lambda : float option Cmdliner.Term.t  (* [--lambda RATE] *)
val seed : int64 option Cmdliner.Term.t  (* [--seed SEED] *)
val quick : bool Cmdliner.Term.t  (* [--quick] *)
val full : bool Cmdliner.Term.t  (* [--full] *)
val store_and_forward : bool Cmdliner.Term.t  (* [--store-and-forward] *)

(** {1 The override rule} *)

type overrides = {
  system : system_opts;
  message : message_opts;
  lambda : float option;  (** pins the load to one point *)
  seed : int64 option;
  sizes : Fatnet_scenario.Scenario.protocol option;
      (** the warm-up, measured and drain counts to take from this
          protocol (what [--quick] and [--full] set); its other
          fields are not read *)
  store_and_forward : bool;
  pattern : pattern_opts;
  replication : replication_opts;
}

val none : overrides
(** No flag given: {!apply} returns the base, validated. *)

val smoke_sizes : Fatnet_scenario.Scenario.protocol
(** 100 / 1_000 / 100 messages: [fig --quick], the CI smoke. *)

val apply : overrides -> Fatnet_scenario.Scenario.t -> (Fatnet_scenario.Scenario.t, string) result
(** The base with every given flag applied to the field it names,
    then validated.  [--precision] creates a replication rule (95 %
    confidence, 2–8 replications, the mean) when the base has none,
    and [--precision 0] removes it.  [Error] for a flag that cannot
    take effect: [--min-reps]/[--max-reps]/[--target] with no
    [--precision] and no [[replication]] section (or with
    [--precision 0]), [--hotspot] with [--p-local],
    [--hotspot-fraction] without a hotspot pattern, [--org] with the
    homogeneous-system flags. *)

val resolve :
  ?protocol:Fatnet_scenario.Scenario.protocol ->
  scenario:string option ->
  overrides ->
  (Fatnet_scenario.Scenario.t, string) result
(** {!apply} over the command's base: the [--scenario] file, or
    without one a scenario built from the system flags (homogeneous
    4/2/4 on the Table-2 networks by default), M = 32, d_m = 256,
    λ_g = 1e-4 and [protocol] (default
    {!Fatnet_scenario.Scenario.default_protocol}).  Errors about a
    file are prefixed with its path. *)

(** {1 Sweep engine flags} *)

val domains : int option Cmdliner.Term.t
(** [--domains N]; [None] = {!Fatnet_model.Eval.Pool.recommended_domains}. *)

val resolve_domains : int option -> (int, string) result

val no_cache : bool Cmdliner.Term.t  (* [--no-cache] *)
val cache_dir : string option Cmdliner.Term.t  (* [--cache-dir DIR] *)

val point_cache : no_cache:bool -> cache_dir:string option -> string option
(** The point-cache directory, or [None] under [--no-cache].  Raises
    [Failure] when both flags are given. *)

type engine_opts = {
  domains : int option;          (** [--domains] *)
  no_cache : bool;               (** [--no-cache] *)
  cache_dir : string option;     (** [--cache-dir] *)
  retries : int option;          (** [--retries] *)
  fail_fast : bool;              (** [--fail-fast] *)
  inject_faults : string option; (** [--inject-faults SPEC] *)
}

val engine_opts : engine_opts Cmdliner.Term.t

val engine_of_opts :
  ?tracer:Fatnet_obs.Trace.t ->
  ?metrics:Fatnet_obs.Metrics.t ->
  engine_opts ->
  Fatnet_experiments.Sweep_engine.config
(** The engine configuration, with a fresh in-memory point memo shared
    by every sweep run against it ([--no-cache] disables it along with
    the disk cache).  Raises [Failure] (a usage error under {!guard})
    on a malformed [--inject-faults] spec or on [--cache-dir] with
    [--no-cache]. *)

(** {1 Telemetry: [--metrics], [--metrics-format], [--trace], [--quiet]} *)

type metrics_format = Metrics_json | Metrics_prometheus | Metrics_table

type metrics_opts = {
  metrics_file : string option;     (** [--metrics \[FILE\]]; [None] = off *)
  metrics_format : metrics_format option;  (** [--metrics-format]; [None] = json *)
}

val default_metrics_file : string
(** ["results/metrics.json"]: where a bare [--metrics] writes and
    [fatnet report] reads. *)

val metrics_opts : metrics_opts Cmdliner.Term.t

val metrics_registry : ?live:bool -> metrics_opts -> Fatnet_obs.Metrics.t
(** A fresh enabled registry under [--metrics] or when [live] (a
    daemon's [/metrics] scrape needs data), else
    {!Fatnet_obs.Metrics.disabled}.  Raises [Failure] (a usage error
    under {!guard}) on [--metrics-format] without [--metrics]. *)

val render_metrics : metrics_format -> Fatnet_obs.Metrics.Snapshot.t -> string

val write_metrics : metrics_opts -> Fatnet_obs.Metrics.t -> unit
(** Snapshot the registry to [--metrics]'s FILE ([-] for stdout),
    creating parent directories; a no-op without [--metrics]. *)

type trace_opts = {
  trace_file : string option;  (** [--trace \[FILE\]]; [None] = off *)
  quiet : bool;                (** [--quiet]: errors only, no progress line *)
}

val default_trace_file : string
(** ["results/trace.json"]: where a bare [--trace] writes and
    [fatnet timeline] reads. *)

val trace_opts : trace_opts Cmdliner.Term.t

val progress_wanted : trace_opts -> bool
(** A live progress line renders: stderr is a TTY and no [--quiet]. *)

val tracer_of_opts : ?progress:bool -> trace_opts -> Fatnet_obs.Trace.t
(** An enabled trace under [--trace], or when [progress] is set and
    {!progress_wanted} holds (the progress line reads the span
    stream); else {!Fatnet_obs.Trace.disabled}.  Applies [--quiet] to
    the log threshold. *)

val write_trace : trace_opts -> Fatnet_obs.Trace.t -> unit
(** Chrome trace-event JSON to [--trace]'s FILE ([-] for stdout),
    creating parent directories; a no-op without [--trace]. *)

(** {1 Command flags}

    Declared here with the rest so that no name is declared twice;
    [--out] and [--steps] take their per-command default where they
    are used. *)

val out_dir : string option Cmdliner.Term.t  (* [--out DIR] *)
val steps : int option Cmdliner.Term.t  (* [--steps N] *)
val sweep : bool Cmdliner.Term.t  (* [--sweep] (model) *)
val saturation : bool Cmdliner.Term.t  (* [--saturation] (model) *)
val message_trace : string option Cmdliner.Term.t  (* [--message-trace FILE] (sim) *)
val model_steps : int option Cmdliner.Term.t  (* [--model-steps N] (fig) *)
val sim_steps : int option Cmdliner.Term.t  (* [--sim-steps N] (fig) *)
val no_sim : bool Cmdliner.Term.t  (* [--no-sim] (fig) *)
val p99 : bool Cmdliner.Term.t  (* [--p99] (fig) *)
val output : string option Cmdliner.Term.t  (* [-o]/[--output FILE] (export) *)
val format : metrics_format Cmdliner.Term.t  (* [--format FMT] (report) *)
val top : int Cmdliner.Term.t  (* [--top N] (timeline) *)
val listen : string Cmdliner.Term.t  (* [--listen ADDR] (serve) *)
val memo_capacity : int Cmdliner.Term.t  (* [--memo-capacity N] (serve) *)
val cache_recovery : int Cmdliner.Term.t  (* [--cache-recovery N] (serve) *)
val max_batch : int Cmdliner.Term.t  (* [--max-batch N] (serve) *)
val connect : string option Cmdliner.Term.t  (* [--connect ADDR] (query) *)
val offline : bool Cmdliner.Term.t  (* [--offline] (query) *)
val bench_dir : string option Cmdliner.Term.t  (* [--dir DIR] (bench report) *)
val baseline : string Cmdliner.Term.t  (* [--baseline DIR] (bench report) *)
val guard_tol : float option Cmdliner.Term.t  (* [--guard-tol X] (bench report) *)

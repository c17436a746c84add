(** Zero-dependency telemetry: a metrics registry with counters,
    gauges and fixed-bucket histograms.

    The registry exists so the engine's internal quantities — channel
    utilisation per tree level, blocking probability, C/D buffer
    occupancy, solver iteration counts, scheduler busy time — can be
    exported instead of printf-debugged.  Design constraints, in
    order:

    {ul
    {- {b allocation-free on the hot path}: instruments are plain
       mutable records created once (registration is the cold path);
       recording is an increment, a store, or a bin bump — no
       closures, no boxing;}
    {- {b literal no-ops when disabled}: a disabled registry hands
       every caller the same statically allocated sink instruments
       ({!null_counter} and friends), so instrumented code runs
       unconditionally and its disabled-mode cost is one dead store
       into a shared dummy — no [if enabled] at every call site;}
    {- {b domain-safe by construction}: counters are atomic; gauges
       and histograms are meant to be recorded from one domain at a
       time (the domain pool gives each worker domain its own
       registry and {!absorb}s the snapshots after the join).
       Registration itself is mutex-guarded.}}

    Instruments are identified by a name plus optional
    [(key, value)] labels; registering the same identity twice
    returns the same instrument (with the same kind and, for
    histograms, the same buckets — anything else is a programming
    error and raises). *)

type t
(** A metrics registry. *)

type counter
type gauge
type histogram

val create : unit -> t
(** A fresh, enabled registry. *)

val disabled : t
(** The shared disabled registry: every instrument it returns is the
    corresponding static null sink, snapshots are empty, and
    {!absorb}/{!set_meta} are no-ops. *)

val is_enabled : t -> bool

(** {1 Registration (cold path)} *)

val counter : ?help:string -> ?labels:(string * string) list -> t -> string -> counter
(** Monotone integer count (events processed, cache hits, solver
    iterations).  Atomic, hence safe to bump from any domain. *)

val gauge : ?help:string -> ?labels:(string * string) list -> t -> string -> gauge
(** Last-written float (phase end times, saturation rate).  Merging
    snapshots keeps the {e maximum}, so peak-style gauges aggregate
    meaningfully across replications and domains. *)

val histogram :
  ?help:string ->
  ?labels:(string * string) list ->
  lo:float ->
  hi:float ->
  bins:int ->
  t ->
  string ->
  histogram
(** Fixed-bucket histogram over [[lo, hi)] with [bins] equal-width
    bins; samples outside the range land in under/overflow counters,
    never dropped.  Requires finite [lo < hi] and [bins >= 1] (a
    non-finite bound would poison the bucket edges and the JSON
    export).  The running sum is kept, so merged snapshots preserve
    totals and means. *)

(** {1 Recording (hot path)} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Keep the maximum of the current and given value — peak tracking
    (queue depths, worms in flight). *)

val observe : histogram -> float -> unit
(** Record a sample.  NaN samples are dropped, and negative samples
    are dropped when the histogram's range starts at or above zero —
    into such a histogram a negative value can only be a measurement
    defect (a stepped clock under a duration timer), so it is
    rejected at the boundary rather than recorded as under-range
    data.  Histograms created with a negative [lo] accept negative
    samples as before. *)

(** {1 Clock} *)

val now_seconds : unit -> float
(** Monotonic seconds (the same nanosecond clock {!Fatnet_obs.Trace}
    uses, scaled), so durations survive NTP steps in a long-running
    process.  The epoch is arbitrary — only differences are
    meaningful.  Exposed so layers that may not depend on [unix]
    directly (the model's evaluation pool, benches) can time
    busy/wall intervals against the same clock as the trace. *)

(** {1 Run metadata} *)

val set_meta : t -> string -> string -> unit
(** Attach a [(key, value)] string to the registry (command line,
    scenario name, ...); exported verbatim in snapshots.  Last write
    per key wins. *)

(** {1 Ambient registry}

    A domain-local current registry, so deep call sites (the solver
    inside the analytical model) can record without threading a
    registry through every signature.  Defaults to {!disabled} in
    every domain. *)

val ambient : unit -> t
val set_ambient : t -> unit

val with_ambient : t -> (unit -> 'a) -> 'a
(** Run the thunk with the ambient registry swapped, restoring the
    previous one even on exceptions. *)

(** {1 Snapshots and exporters} *)

module Snapshot : sig
  type histo = {
    lo : float;
    hi : float;
    counts : int array;
    underflow : int;
    overflow : int;
    sum : float;
    count : int;  (** total samples, including under/overflow *)
  }

  type value = Counter of int | Gauge of float | Histogram of histo

  type series = {
    name : string;
    labels : (string * string) list;
    help : string;
    value : value;
  }

  type t = {
    meta : (string * string) list;  (** sorted by key *)
    series : series list;           (** sorted by (name, labels) *)
  }

  val empty : t

  val find : ?labels:(string * string) list -> t -> string -> value option
  (** The series with this exact identity, if present. *)

  val merge : t -> t -> t
  (** Pointwise union: counters add, gauges keep the maximum,
      histograms add bin-for-bin (same bucket layout required —
      mismatched layouts for the same identity raise
      [Invalid_argument]).  Meta keys union, second snapshot winning
      ties.  This is the replication/domain aggregation path. *)

  val to_json : t -> string
  (** Stable, human-readable JSON document (schema version included);
      non-finite floats are encoded as the strings ["nan"], ["inf"],
      ["-inf"]. *)

  val of_json : string -> (t, string) result
  (** Parse a document produced by {!to_json} (a minimal JSON reader
      — objects, arrays, strings, numbers — sufficient for the
      snapshot schema; not a general-purpose parser). *)

  val to_prometheus : t -> string
  (** Prometheus text exposition format: [# HELP]/[# TYPE] comments,
      cumulative [_bucket{le="..."}] series plus [_sum]/[_count] for
      histograms.  Underflow is folded into the first bucket, as the
      cumulative-bucket convention requires. *)
end

val snapshot : t -> Snapshot.t
(** Export the registry's current state (empty for {!disabled}). *)

val absorb : t -> Snapshot.t -> unit
(** Fold a snapshot into this registry with {!Snapshot.merge}
    semantics, creating missing instruments — how per-domain worker
    registries flow back into the run's root registry.  No-op on
    {!disabled}. *)

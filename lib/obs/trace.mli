(** Hierarchical causal spans: the "why was this slow" companion to
    {!Metrics}' aggregates.

    A span is a named interval on a monotonic clock with an explicit
    parent id, the recording domain's track, and optional key/value
    attributes (solver iteration counts, cache outcomes, λ points).
    Spans from every domain collect into one trace, exportable as
    Chrome trace-event JSON ([chrome://tracing] / Perfetto, one track
    per domain) or rendered as a timeline table
    ({!Fatnet_report.Trace_report}).

    The discipline is the same as {!Metrics}:

    {ul
    {- {b disabled is free}: {!disabled} hands every caller the one
       statically allocated {!null_span}; [start]/[finish]/[attr] on
       it are a load and a branch — no clock reads, no allocation —
       so instrumented code runs unconditionally;}
    {- {b no plumbing}: a Domain-local ambient trace plus an ambient
       {e current span} give deep call sites (the solver inside the
       model) a parent to attach to without threading anything
       through signatures;}
    {- {b results-transparent}: tracing observes, never steers — a
       traced run is bit-identical to an untraced one (pinned by
       test, including cache entries).}}

    Span bodies run on one domain (start and finish on the same
    domain); {!finish} publishes the completed record under the
    trace's lock, so any number of domains can record concurrently. *)

type t
(** A trace: a sink for completed spans. *)

val create : unit -> t
(** A fresh, enabled trace.  Its epoch (timestamp zero) is the
    creation instant. *)

val disabled : t
(** The shared disabled trace: spans started against it are
    {!null_span}, nothing is recorded, exports are empty. *)

val is_enabled : t -> bool

val now_ns : unit -> int64
(** The monotonic clock behind spans (nanoseconds, arbitrary
    origin) — exposed for consumers that throttle or compute rates
    against span timestamps (the sweep progress line). *)

(** {1 Spans} *)

type span
(** A started, unfinished span. *)

val null_span : span
(** What {!start} returns on a disabled trace; every operation on it
    is a no-op. *)

val start : ?parent:int -> t -> string -> span
(** Start a span.  [parent] defaults to the ambient current span
    (0 = a root).  Cheap: an atomic id fetch and one clock read. *)

val id : span -> int
(** The span's id, for explicit cross-domain parenting ([0] for
    {!null_span}). *)

val attr : span -> string -> string -> unit
(** Attach a key/value attribute (kept in insertion order). *)

val attr_int : span -> string -> int -> unit
val attr_float : span -> string -> float -> unit

val finish : span -> unit
(** Record the span (duration = now − start) on the current domain's
    track and hand the completed record to subscribers. *)

val in_span : ?parent:int -> t -> string -> (span -> 'a) -> 'a
(** [in_span t name f]: start a span, make it the ambient current
    span for [f] (so nested spans parent to it), finish it when [f]
    returns or raises.  On a disabled trace, [f null_span]. *)

val instant : ?parent:int -> t -> string -> (string * string) list -> unit
(** A zero-length marker span with the given attributes (memo-served
    sweep points, one-off events). *)

(** {1 Ambient trace}

    Mirrors {!Metrics.ambient}: a domain-local current trace so the
    simulator and solver need no configuration plumbing.  Defaults to
    {!disabled} in every domain. *)

val ambient : unit -> t
val set_ambient : t -> unit

val with_ambient : t -> (unit -> 'a) -> 'a
(** Run the thunk with the ambient trace swapped, restoring the
    previous one even on exceptions. *)

val current : unit -> int
(** The ambient current span id on this domain (0 when outside any
    {!in_span}). *)

(** {1 Completed spans and export} *)

type span_record = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  track : int;  (** recording domain's id *)
  start_ns : int64;  (** since the trace's epoch *)
  dur_ns : int64;
  attrs : (string * string) list;
}

val subscribe : t -> (span_record -> unit) -> unit
(** Call [f] on every subsequently finished span (synchronously, on
    the finishing domain — [f] must be domain-safe and quick).  The
    sweep progress line is such a subscriber. *)

val spans : t -> span_record list
(** Every finished span so far, sorted by (start, id). *)

val to_chrome_json : t -> string
(** The trace as a Chrome trace-event JSON document: one complete
    ([ph:"X"]) event per span with microsecond [ts]/[dur], [tid] =
    track, span id/parent and attributes under [args], plus
    [thread_name] metadata naming each domain's track.  Loadable in
    [chrome://tracing] and Perfetto. *)

val spans_of_chrome_json : string -> (span_record list, string) result
(** Re-parse a {!to_chrome_json} document (timestamps round-trip
    exactly; metadata events are skipped).  This is what
    [fatnet timeline] and the golden tests read. *)

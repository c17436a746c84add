(** Human timeline view of a span trace: the [fatnet timeline]
    renderer.

    Two tables from one span list (typically
    {!Fatnet_obs.Trace.spans_of_chrome_json} on a [--trace] file):

    {ul
    {- the top-N slowest spans, with start, duration, {e self} time
       (duration minus the summed duration of direct children — where
       the time actually went) and attributes;}
    {- an aggregate by span name: count, total, total self, max.}}

    Durations print in milliseconds. *)

val render : ?top:int -> Fatnet_obs.Trace.span_record list -> string
(** The full report ([top] slowest spans, default 10, then the
    by-name aggregate).  Empty input renders a friendly one-liner. *)

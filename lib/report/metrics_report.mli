(** Human view of a telemetry snapshot: counters and gauges as an
    aligned table, histograms as labelled ASCII bar blocks (one row
    per bucket, bars scaled to the fullest bucket, under/overflow
    rows shown only when hit).  This is what [fatnet report]
    prints; the machine-readable forms are
    {!Fatnet_obs.Metrics.Snapshot.to_json} and
    {!Fatnet_obs.Metrics.Snapshot.to_prometheus}. *)

val render : Fatnet_obs.Metrics.Snapshot.t -> string

val print : Fatnet_obs.Metrics.Snapshot.t -> unit
(** [render] to stdout. *)

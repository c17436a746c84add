(** Batch-means confidence intervals for steady-state simulation
    output.

    Correlated latency samples are grouped into fixed-size batches;
    batch means are approximately independent, so a Student-t interval
    over them is a defensible CI for the steady-state mean. *)

type t

val create : batch_size:int -> t
(** [batch_size >= 1]. *)

val add : t -> float -> unit

val completed_batches : t -> int

val mean : t -> float
(** Grand mean over completed batches ([nan] if none). *)

val half_width : t -> confidence:float -> float
(** Half-width of the two-sided CI at [confidence] (e.g. [0.95]).
    Requires at least two completed batches; [nan] otherwise.
    Uses a built-in t-table (exact for small df, normal limit
    beyond). *)

val t_critical : confidence:float -> df:int -> float
(** Two-sided Student-t critical value (the table {!half_width}
    uses): exact for [df <= 30], the normal quantile beyond.
    Exposed so that replication-level intervals — a Student-t over
    independent replication means — use the same table as the
    batch-means intervals.  Requires [df >= 1]. *)

(** Degradation gate in front of {!Point_cache} I/O.

    A cache I/O failure must cost work, never results: the sweep
    engine's contract (PR 5) is that one error flips the run to
    cache-off with a single stderr warning and a [cache_errors]
    counter tick, instead of aborting.  That one-way trip is right
    for a 30-second batch sweep and wrong for a daemon that may
    outlive a transient disk hiccup (NFS blip, log rotation against
    the cache volume), so the gate adds an optional recovery path:
    after [recover_after] gated operations have been skipped, the
    next one re-probes the cache; if the disk is still broken the
    probe's own error trips the gate again (one warning per trip,
    [cache_reprobes] counts the attempts).

    The gate is domain-safe: any number of domains may call {!ready}
    and {!trip} concurrently; a racing trip warns exactly once. *)

type t

val create :
  ?recover_after:int -> ?metrics:Fatnet_obs.Metrics.t -> ?context:string ->
  enabled:bool -> unit -> t
(** [enabled:false] builds a permanently closed gate (no cache
    configured).  [recover_after] (default: none — batch semantics,
    the gate never re-opens) is the number of {!ready} calls to
    refuse after a trip before the next one re-probes; it must be
    ≥ 1.  [context] is spliced into the warning — ["point cache
    disabled <context> (cache <op> failed: ...)"] — and defaults to
    ["for this sweep"]. *)

val ready : t -> bool
(** Should this operation touch the cache?  [true] when the gate is
    up, and for the single operation elected to re-probe after a
    countdown expires (the gate re-opens optimistically at that
    point).  Counts down while degraded. *)

val trip : t -> op:string -> exn -> unit
(** Record a cache I/O failure: bump [cache_errors{op,kind}] on the
    gate's metrics registry, close the gate (forever, or for
    [recover_after] operations), and — only on the transition from
    up to down — log the one warning. *)

val degraded : t -> bool
(** Is the gate currently closed (including counting down)? *)

val trips : t -> int
(** Up→down transitions since creation (1 for a tripped batch gate;
    may exceed 1 with recovery as failed re-probes re-trip). *)

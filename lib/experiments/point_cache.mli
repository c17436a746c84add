(** Persistent on-disk cache of simulated points
    ({!Fatnet_sim.Runner.point}).

    A sweep point is a fixed-load {!Fatnet_scenario.Scenario.t}, and a
    scenario fully determines its result (the simulator is
    deterministic), so the cache keys on the scenario's own canonical
    identity — {!Fatnet_scenario.Scenario.canonical}, the rendering
    behind {!Fatnet_scenario.Scenario.hash} — prefixed with
    {!engine_version} and the scenario version.

    The canonical rendering is bit-exact (IEEE-754 bit hex floats)
    and excludes the scenario's [name]/[title], so a cache hit is
    bit-identical to recomputation and relabeling never invalidates.
    Bumping {!engine_version} (on any change to simulator semantics,
    the replication rule, or the storage format) or
    {!Fatnet_scenario.Scenario.scenario_version} (on any change to a
    field's meaning) invalidates every existing entry, because both
    prefix the key.  Entries whose stored key line does not exactly
    match the probe key (hash collision, truncated file, foreign
    file) are treated as misses. *)

val engine_version : int
(** Currently 3 (full-quantile-ladder summaries).  Entries written by
    an older engine fail the magic-line check and read as plain
    misses: the point is recomputed and the entry rewritten — never
    an error, and never a [cache_errors] increment. *)

val default_dir : string
(** [results/.cache]. *)

val key : Fatnet_scenario.Scenario.t -> string
(** The canonical key of a (fixed-load) scenario. *)

val find : dir:string -> ?faults:Fault.t -> string -> Fatnet_sim.Runner.point option
(** Look the key up in [dir]; [None] on miss, unreadable file, or
    stored-key mismatch.  [faults] (default {!Fault.none}) may inject
    a failure at the {!Fault.Cache_find} site. *)

val store : dir:string -> ?faults:Fault.t -> string -> Fatnet_sim.Runner.point -> unit
(** Persist (atomically: write to a temp file, then rename).  Creates
    [dir] if needed.  On any failure the temp file is removed before
    the exception propagates — a failed store never leaks [.tmp]
    garbage.  [faults] may inject failures at the
    {!Fault.Cache_store} (entry) and {!Fault.Tmp_rename} (between
    write and rename) sites. *)

val gc_tmp : dir:string -> int
(** Remove orphaned [.tmp] files (older than 15 minutes — debris from
    crashed runs; fresh ones may belong to a live writer) and return
    how many were removed.  Never raises; unreadable directories and
    unremovable files count as zero. *)

val clear : dir:string -> unit
(** Remove every cache entry under [dir], plus any stale [.tmp]
    debris.  Fresh [.tmp] files are left alone: they may belong to a
    concurrent writer, and removing one would race that writer's
    rename into a [Sys_error]. *)

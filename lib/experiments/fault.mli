(** Deterministic fault injection for the sweep engine.

    A fault plan is a seeded (SplitMix64) schedule of failures at
    named sites — the points where a real sweep can die in the wild: a
    cache lookup on an unreadable directory, a store into a read-only
    one, a point's execution being killed mid-run, a temp file swept
    out from under its rename.  Tests and CI use a plan to drive the
    engine through reproducible fault schedules and pin the resilience
    guarantees (retry, quarantine, cache degradation).

    Determinism is the whole design: whether a fault fires at a site
    is a pure function of [(plan seed, site, key, attempt)] — never of
    wall clock, scheduling order, or domain count — so the same plan
    injects the same schedule no matter which pool domain claims which
    point, or in what interleaving.  The [key] is the point's
    {!Fatnet_scenario.Scenario.hash} at the execution site and the
    cache key at the cache sites; the [attempt] index gives every
    retry a fresh deterministic sub-seed, so a plan can fail a point's
    first attempt and let its retry through.

    The simulation itself is never perturbed: an injected fault raises
    {!Injected} {e before} the guarded operation runs, so any point
    that eventually executes runs its scenario's own seed — which is
    what makes a faulted sweep's surviving results bit-identical to a
    fault-free run. *)

type site =
  | Cache_find   (** {!Point_cache.find} entry *)
  | Cache_store  (** {!Point_cache.store} entry *)
  | Point_exec   (** a sweep point's execution *)
  | Tmp_rename   (** between a store's temp-file write and its rename *)

val site_name : site -> string
(** [cache_find], [cache_store], [point_exec], [tmp_rename] — the
    spec-string names. *)

type t
(** A fault plan.  {!none} injects nothing (and costs nothing on the
    hot path: one physical-equality test). *)

val none : t

val is_none : t -> bool

val make : ?seed:int64 -> (site * float) list -> t
(** [make ~seed rates] builds a plan that fires at each listed site
    with the given probability (clamped to [[0, 1]]; unlisted sites
    never fire).  Decisions are deterministic in
    [(seed, site, key, attempt)]. *)

exception Injected of site * string
(** [Injected (site, key)] — the exception an injected fault raises.
    Registered with a human-readable printer. *)

val fires : t -> site -> key:string -> attempt:int -> bool
(** Whether the plan fires at [site] for [key] on the given attempt.
    Pure and deterministic; tests use it to predict exactly which
    points a schedule poisons. *)

val trip : t -> site -> key:string -> ?attempt:int -> unit -> unit
(** Raise {!Injected} iff {!fires} (default [attempt = 0]). *)

(** {1 Spec strings}

    The [--inject-faults SPEC] format: comma-separated [name=value]
    pairs, where [name] is [seed] (decimal [int64]) or a site name and
    [value] a firing probability in [[0, 1]].  Example:
    [seed=42,point_exec=0.5,cache_store=1]. *)

val of_spec : string -> (t, string) result

val to_spec : t -> string
(** Canonical spec rendering; [of_spec (to_spec t)] is equivalent to
    [t].  [to_spec none = ""]. *)

(** Lock-striped in-memory memo cache for deterministic evaluations.

    The analytical model is a pure function of (scenario, λ): the
    same inputs always produce the same IEEE-754 bits (the engine's
    pinned bit-identity contract).  That purity is what makes an
    in-memory memo safe under parallelism — two domains racing to
    compute the same key write the {e same} value, so last-write-wins
    stores need no coordination beyond per-shard mutual exclusion on
    the table structure itself.

    Keys are [(key : string, bits : int64)] pairs: in the model
    engine, [key] is the scenario canonical hash ({!Fatnet_scenario}
    excludes presentation fields from it) and [bits] is
    [Int64.bits_of_float lambda_g], so two λ values collide only when
    they are the same float bit pattern — exactly when the memoised
    result is bit-identical anyway.

    The table is striped over a power-of-two number of shards, each a
    mutex-guarded hashtable.  A key is hashed once per operation, both
    halves mixed (SplitMix64's finaliser over the string's hash and
    [bits]); the shard is the hash's high bits and the bucket its low
    bits, so keys that share the string and differ in [bits], and keys
    that differ in the string at constant [bits], both spread over
    every shard and every bucket.  An entry's clock slot is stored
    beside its value, so a hit is one probe.  Lookups lock one shard
    for the duration of that probe (no user code runs under the lock);
    {!find_or_compute} runs the computation {e outside} the lock, so
    a slow evaluation never blocks other shards or even other keys of
    the same shard for longer than the probe. *)

type 'v t

val create : ?shards:int -> ?capacity:int -> ?metric:string -> unit -> 'v t
(** A fresh memo with [shards] stripes (default 64, rounded up to a
    power of two).  When [metric] is given (e.g. ["model_memo"]),
    every lookup additionally bumps ["<metric>_hits"] or
    ["<metric>_misses"] on the calling domain's {e ambient} metrics
    registry — the same convention the solver uses, so per-domain
    worker registries absorb cleanly after a parallel join.  Each
    counter is registered once per domain and ambient registry, then
    held until the ambient registry changes.

    [capacity] bounds each shard to that many entries (so the memo
    holds at most [shards × capacity] values); the default is
    unbounded, which is right for a sweep whose key population is
    finite but wrong for a daemon fed arbitrary (scenario, λ) keys.
    Eviction is second-chance ("clock"): a hit re-arms its entry, an
    insert into a full shard sweeps a clock hand past armed entries
    (disarming them) and evicts the first unarmed one — O(1) amortised
    and never worse than two laps.  Evictions bump
    ["<metric>_evictions"] and {!evictions}.  Raises [Invalid_argument]
    when [capacity < 1]. *)

val find : 'v t -> key:string -> bits:int64 -> 'v option
(** Lookup; counts a hit or miss. *)

val store : 'v t -> key:string -> bits:int64 -> 'v -> unit
(** Insert or overwrite.  Racing stores for the same key are benign
    when values are deterministic functions of the key (the only
    supported use). *)

val find_or_compute : 'v t -> key:string -> bits:int64 -> (unit -> 'v) -> 'v
(** [find], or run the thunk outside any lock and [store] the result.
    Concurrent callers may compute the same key twice; both stores
    write the same value. *)

val hits : _ t -> int
(** Total hits since creation, across all domains. *)

val misses : _ t -> int
(** Total misses since creation, across all domains. *)

val evictions : _ t -> int
(** Entries displaced by the capacity bound since creation (always 0
    for an unbounded memo). *)

val capacity : _ t -> int option
(** The per-shard capacity this memo was created with, if any. *)

val hit_rate : _ t -> float
(** [hits / (hits + misses)]; 0 when no lookups have happened. *)

val length : _ t -> int
(** Number of memoised entries (sums the shards; a racing writer can
    make this approximate). *)

val clear : _ t -> unit
(** Drop all entries; the hit/miss totals are kept. *)

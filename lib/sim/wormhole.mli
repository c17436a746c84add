(** Flit-level wormhole flow-control engine (Assumption 6: input
    buffering, one flit buffer per channel).

    The engine simulates worms over a flat space of directed
    channels.  A worm's head reserves channels one hop at a time;
    body flits stream behind, each flit advancing only when the
    next channel's single buffer is free (so a blocked worm holds
    one flit per channel back from its head, exactly the paper's
    flow-control assumptions).  A channel is released to the next
    waiting head when the tail flit leaves its buffer.  Heads queue
    FIFO per channel, which also realises the source queue: a newly
    submitted worm waits in its injection channel's reservation
    queue.

    Ejection channels deliver into the destination node, which is
    always ready to receive (Section 3.1), so their buffer never
    blocks.

    Calendar entries are pooled cells (steady-state simulation
    allocates no words per flit-hop), and once a worm's head holds
    its ejection channel's reservation with every flit released, the
    engine switches that worm to a closed-form streaming fast path:
    the remaining per-flit arrivals and channel releases are computed
    directly from the wormhole recurrence and scheduled as single
    events.  The fast path is exactly trace-equivalent to the
    per-flit state machine — same seed, bit-for-bit identical
    delivered-time stream (property-tested against the slow path,
    which [create ~streaming:false] preserves). *)

type t

val create :
  ?streaming:bool ->
  channel_count:int ->
  hop_time:(int -> float) ->
  is_ejection:(int -> bool) ->
  unit ->
  t
(** [hop_time c] is the per-flit transfer time of channel [c] (must
    be positive); [is_ejection c] marks sink channels.  [streaming]
    (default true) enables the closed-form fast path; disabling it
    forces the reference per-flit state machine (differential
    tests). *)

val now : t -> float
(** Current simulation time (time of the last processed event). *)

val schedule : t -> time:float -> (float -> unit) -> unit
(** Run a client callback at a future time (traffic generation,
    store-and-forward hand-offs, ...).  [time] must be at or after
    {!now}. *)

val submit :
  t ->
  time:float ->
  route:int array ->
  flits:int ->
  ?on_flit_delivered:(int -> float -> unit) ->
  on_delivered:(float -> unit) ->
  unit ->
  unit
(** Inject a worm at [time]: it joins the FIFO reservation queue of
    [route.(0)] and, once granted, streams its [flits] flits along
    [route].  [on_delivered] fires when the tail flit reaches the end
    of the last channel; [on_flit_delivered j t] fires as each flit
    [j] arrives there.  The route must be non-empty, end in an
    ejection channel, and contain no ejection channel elsewhere;
    [flits >= 1]. *)

type gated
(** A worm whose flits only become transmittable one by one — the
    downstream half of a concentrator/dispatcher hand-off.  The C/D
    absorbs the upstream worm into its (unbounded) buffer and
    re-injects flits as they arrive, so forwarding cuts through at
    the head while never outrunning the slower upstream network, and
    a blocked downstream worm never back-pressures the upstream
    network (which would create cross-network deadlock cycles). *)

val submit_gated :
  t ->
  route:int array ->
  flits:int ->
  ?on_flit_delivered:(int -> float -> unit) ->
  on_delivered:(float -> unit) ->
  unit ->
  gated
(** Create a gated worm.  It requests its injection channel when its
    first flit is released. *)

val release_flit : t -> gated -> int -> unit
(** [release_flit t g j] (called during event processing, e.g. from
    an upstream [on_flit_delivered]) makes flit [j] available at the
    current clock.  Flits must be released in order, each exactly
    once. *)

val step : t -> bool
(** Process one event; [false] when the calendar is empty. *)

val run : ?until:float -> t -> unit
(** Process events until the calendar empties or the next event is
    later than [until]. *)

val events_processed : t -> int
(** Total events processed so far (for performance reporting). *)

val busy_channels : t -> int
(** Number of currently reserved channels (diagnostics, invariant
    checks in tests). *)

val channel_busy_time : t -> int -> float
(** Cumulative time the channel has been held by a reservation —
    utilisation diagnostics for locating bottlenecks. *)

val channel_blocked_time : t -> int -> float
(** Cumulative time worm heads have spent queued for this channel's
    reservation (blocking diagnostics; a head currently waiting
    contributes its elapsed wait). *)

val peak_queue_depth : t -> int
(** Deepest reservation queue observed on any channel so far. *)

val delivered_flits : gated -> int
(** Flits of a gated worm already landed at its ejection channel —
    with {!release_flit}'s argument this bounds the C/D backlog. *)

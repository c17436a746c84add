(** The m-port n-tree fat-tree topology (Lin, 2003), as used by the
    paper for every network in the system (ICN1, ECN1 and ICN2).

    An m-port n-tree has [N = 2*(m/2)^n] processing nodes and
    [(2n-1)*(m/2)^(n-1)] switches built from [m]-port switches.
    Levels are numbered 1 (leaf switches) to [n] (root switches);
    every non-root level holds [2*(m/2)^(n-1)] switches, the root
    level [(m/2)^(n-1)].

    The construction is digit-based: node [x] belongs, at level [l],
    to group [x / (m/2)^l]; a level-[l] switch is a (group, parallel)
    pair with parallel index in [[0, (m/2)^(l-1))], wired to the next
    level with butterfly wiring.  Root switches use all [m] ports
    downward, one per level-[(n-1)] group.

    Routing is the deterministic Up*/Down* scheme of the paper's
    reference [20]: ascend to the nearest common ancestor choosing
    up-ports by destination digits (D-mod-k), then descend by digit
    routing.  A source/destination pair at NCA level [h] crosses
    exactly [2h] links and [2h - 1] switches. *)

type t

type endpoint =
  | Node of int    (** processing node id, [0 .. node_count-1] *)
  | Switch of int  (** switch id, [0 .. switch_count-1] *)

type channel_kind =
  | Injection  (** node -> leaf switch *)
  | Ejection   (** leaf switch -> node *)
  | Up         (** switch -> higher-level switch *)
  | Down       (** switch -> lower-level switch *)

val create : m:int -> n:int -> t
(** [create ~m ~n] builds the topology.  Requires [m] even, [m >= 2],
    [n >= 1]. *)

val m : t -> int
val n : t -> int

val node_count : t -> int
(** [2 * (m/2)^n]. *)

val switch_count : t -> int
(** [(2n - 1) * (m/2)^(n-1)]. *)

val channel_count : t -> int
(** Total number of directed channels (two per physical link). *)

val switch_level : t -> int -> int
(** Level of a switch id, in [[1, n]]. *)

val switches_at_level : t -> int -> int list
(** All switch ids at a given level. *)

val leaf_switch_of_node : t -> int -> int
(** The level-1 (root when [n = 1]) switch a node attaches to. *)

val channel_kind : t -> int -> channel_kind
(** Kind of a channel id. *)

val channel_endpoints : t -> int -> endpoint * endpoint
(** Source and destination endpoints of a directed channel. *)

val channel_id : t -> src:endpoint -> dst:endpoint -> int
(** Id of the directed channel between adjacent endpoints.
    @raise Not_found if the endpoints are not adjacent. *)

val nca_level : t -> src:int -> dst:int -> int
(** Nearest-common-ancestor level [h] of two distinct nodes, in
    [[1, n]].  Requires [src <> dst]. *)

val ascent_choices : t -> int
(** Number of distinct up-path choices a source has,
    [(m/2)^(n-1)] — the root-switch count. *)

val route : ?choice:int -> t -> src:int -> dst:int -> int array
(** Directed channel ids along an Up*/Down* path from node [src] to
    node [dst].  The path has [2h] channels for NCA level [h]: one
    {!Injection}, [h-1] {!Up}, [h-1] {!Down}, one {!Ejection}
    ([h = n] paths touch a root switch; [h = 1] paths are injection
    followed by ejection through the shared leaf switch).

    The ascent phase has [(m/2)^(h-1)] equivalent NCA switches to aim
    for; [choice] (in [[0, ascent_choices)], reduced modulo the
    per-level parallel count) selects among them.  The default is
    the deterministic D-mod-k choice derived from the destination
    address; passing a uniformly random [choice] per message yields
    the balanced channel loads the analytical model assumes, which
    matters under non-uniform destination weights.  The descent is
    forced by the wiring either way.  Requires [src <> dst]. *)

val degree : t -> int -> int
(** Number of channels leaving a switch (up + down + ejection); at
    most [m] by construction. *)

(** Parameter records describing a heterogeneous cluster-of-clusters
    system (Section 2 of the paper).

    A system is [C] clusters sharing a switch arity [m].  Cluster [i]
    is an m-port [n_i]-tree of [N_i = 2*(m/2)^(n_i)] nodes with its
    own intra-cluster network ICN1(i) and egress network ECN1(i); the
    clusters are joined by concentrator/dispatchers to a global
    m-port [n_c]-tree ICN2 whose "nodes" are the [C] C/Ds, so
    [C = 2*(m/2)^(n_c)] must hold. *)

type network = {
  bandwidth : float;       (** bytes per time unit; [β = 1 / bandwidth] *)
  network_latency : float; (** [α_n], wire latency per link *)
  switch_latency : float;  (** [α_s], switch traversal latency *)
}

type message = {
  length_flits : int; (** [M], message length in flits *)
  flit_bytes : float; (** [d_m], flit length in bytes *)
}

type cluster = {
  tree_depth : int; (** [n_i] of the cluster's m-port n-tree *)
  icn1 : network;   (** intra-cluster network characteristics *)
  ecn1 : network;   (** inter-cluster egress network characteristics *)
}

type system = {
  m : int;                  (** switch arity, shared by every tree *)
  clusters : cluster array; (** one entry per cluster, length [C] *)
  icn2 : network;           (** global network characteristics *)
  icn2_depth : int;         (** [n_c]; must satisfy [C = 2*(m/2)^(n_c)] *)
}

val beta : network -> float
(** Per-byte transmission time [1 / bandwidth]. *)

val cluster_size : m:int -> tree_depth:int -> int
(** [N_i = 2 * (m/2)^(n_i)]. *)

val cluster_nodes : system -> int -> int
(** Node count of cluster [i]. *)

val total_nodes : system -> int
(** [N = Σ_i N_i]. *)

val cluster_count : system -> int
(** [C]. *)

val outgoing_probability : system:system -> cluster:int -> float
(** Eq. (2): [U_i = 1 − (N_i − 1)/(N − 1)], the probability that a
    message generated in cluster [i] leaves it under uniform
    destinations; 0 for a single-node system. *)

val icn2_depth_for : m:int -> clusters:int -> int option
(** The [n_c] with [clusters = 2*(m/2)^(n_c)], when one exists. *)

val validate : system -> (unit, string) result
(** Check structural invariants: [m] even and positive, at least one
    cluster, positive depths, positive bandwidths and latencies, and
    [C = 2*(m/2)^(n_c)]. *)

val validate_exn : system -> unit
(** @raise Invalid_argument when {!validate} fails. *)

val make_system :
  m:int -> icn2:network -> ?icn2_depth:int -> cluster list -> system
(** Convenience constructor; infers [icn2_depth] from the cluster
    count when not supplied.  Validates. *)

val homogeneous :
  m:int -> tree_depth:int -> clusters:int -> icn1:network -> ecn1:network -> icn2:network ->
  system
(** A system of identical clusters; validates. *)

val pp_system : Format.formatter -> system -> unit

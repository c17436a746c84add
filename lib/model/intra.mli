(** Intra-cluster mean message latency, Section 3.1 (Eqs. 4–19): the
    record {!Latency.evaluate} reports per cluster.

    From cluster [i]'s point of view, a message staying inside the
    cluster sees [L_in = W_in + T_in + E_in]: the source-queue wait,
    the head-flit network latency through ICN1(i), and the tail-flit
    drain time.  {!Eval} computes the terms. *)

type breakdown = {
  lambda_icn1 : float;  (** Eq. (7): message rate entering ICN1(i) *)
  eta_icn1 : float;     (** Eq. (10): per-channel rate in ICN1(i) *)
  mean_distance : float; (** Eq. (9): average links per message *)
  network : float;      (** [T_in], Eq. (5) *)
  waiting : float;      (** [W_in], Eq. (18); [infinity] past saturation *)
  tail : float;         (** [E_in], Eq. (19) *)
  total : float;        (** [L_in = W_in + T_in + E_in] *)
}

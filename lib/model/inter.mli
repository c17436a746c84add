(** Inter-cluster mean message latency, Section 3.2 (Eqs. 20–39): the
    records {!Latency.evaluate} reports per cluster and per
    destination.

    A message leaving cluster [i] for cluster [j] ascends [r] links
    of ECN1(i), crosses the concentrator/dispatcher, makes a
    [2l]-link journey through ICN2, crosses cluster [j]'s C/D, and
    descends [v] links of ECN1(j).  Because the flow control is
    wormhole, the three networks are analysed as one merged pipeline
    of [K = r + v + 2l − 1] stages whose per-stage service times and
    channel rates switch networks partway (Eqs. 27 and 30).  {!Eval}
    computes the terms. *)

type pair_breakdown = {
  dest : int;          (** the cluster [j] *)
  lambda_ecn1 : float; (** Eq. (22) *)
  lambda_icn2 : float; (** Eq. (23), per the selected variant *)
  eta_ecn1 : float;    (** Eq. (24) *)
  eta_icn2 : float;    (** Eq. (25) *)
  network : float;     (** [T_ex^(i,j)], Eq. (20) *)
  waiting : float;     (** [W_ex^(i,j)], Eq. (31) *)
  tail : float;        (** [E_ex^(i,j)], Eq. (33) *)
  cd_wait : float;     (** [2·W_c^(i,j)], Eq. (37), both C/D buffers *)
  latency : float;     (** [L_ex^(i,j)], Eq. (32) *)
}

type breakdown = {
  l_ex : float;   (** Eq. (35): average of [L_ex^(i,j)] over [j ≠ i] *)
  w_d : float;    (** Eq. (38): mean C/D wait *)
  total : float;  (** Eq. (39): [L_out = L_ex + W_d] *)
  pairs : pair_breakdown list; (** one per destination cluster *)
}

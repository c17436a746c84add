type pair_breakdown = {
  dest : int;
  lambda_ecn1 : float;
  lambda_icn2 : float;
  eta_ecn1 : float;
  eta_icn2 : float;
  network : float;
  waiting : float;
  tail : float;
  cd_wait : float;
  latency : float;
}

type breakdown = {
  l_ex : float;
  w_d : float;
  total : float;
  pairs : pair_breakdown list;
}

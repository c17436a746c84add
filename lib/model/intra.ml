type breakdown = {
  lambda_icn1 : float;
  eta_icn1 : float;
  mean_distance : float;
  network : float;
  waiting : float;
  tail : float;
  total : float;
}

type cluster_result = {
  cluster : int;
  nodes : int;
  u : float;
  intra : Intra.breakdown;
  inter : Inter.breakdown option;
  combined : float;
}

type t = { mean_latency : float; clusters : cluster_result list }

let evaluate ?variants ?outgoing ~system ~message ~lambda_g () =
  let ws = Eval.workspace ?variants ?outgoing ~system ~message () in
  let mean_latency = Eval.mean_into ws ~lambda_g in
  let t = Eval.terms ws in
  let c_count = Params.cluster_count system in
  let pair i k =
    let p = t.Eval.pair_class.(i).(k) in
    {
      Inter.dest = (if k < i then k else k + 1);
      lambda_ecn1 = t.Eval.lambda_ecn1.(p);
      lambda_icn2 = t.Eval.lambda_icn2.(p);
      eta_ecn1 = t.Eval.eta_ecn1.(p);
      eta_icn2 = t.Eval.eta_icn2.(p);
      network = t.Eval.pair_network.(p);
      waiting = t.Eval.pair_waiting.(p);
      tail = t.Eval.pair_tail.(p);
      cd_wait = t.Eval.cd_wait.(p);
      latency = t.Eval.pair_latency.(p);
    }
  in
  let cluster_result i =
    let a = t.Eval.cluster_class.(i) in
    let intra =
      {
        Intra.lambda_icn1 = t.Eval.lambda_icn1.(a);
        eta_icn1 = t.Eval.eta_icn1.(a);
        mean_distance = t.Eval.mean_distance.(a);
        network = t.Eval.intra_network.(a);
        waiting = t.Eval.intra_waiting.(a);
        tail = t.Eval.intra_tail.(a);
        total = t.Eval.intra_total.(a);
      }
    in
    let inter =
      if c_count < 2 then None
      else
        Some
          {
            Inter.l_ex = t.Eval.l_ex.(i);
            w_d = t.Eval.w_d.(i);
            total = t.Eval.inter_total.(i);
            pairs = List.init (c_count - 1) (pair i);
          }
    in
    {
      cluster = i;
      nodes = Params.cluster_nodes system i;
      u = t.Eval.u.(a);
      intra;
      inter;
      combined = t.Eval.combined.(i);
    }
  in
  { mean_latency; clusters = List.init c_count cluster_result }

let mean ?variants ?outgoing ~system ~message ~lambda_g () =
  Eval.mean_into (Eval.workspace ?variants ?outgoing ~system ~message ()) ~lambda_g

let saturation_rate ?variants ?tol ~system ~message () =
  Eval.saturation_rate ?tol (Eval.workspace ?variants ~system ~message ())

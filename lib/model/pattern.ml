type t = Uniform | Local of { p_local : float }

let outgoing_probability t ~system ~cluster =
  match t with
  | Uniform -> Params.outgoing_probability ~system ~cluster
  | Local { p_local } ->
      if p_local < 0. || p_local > 1. then invalid_arg "Pattern: p_local must be in [0,1]";
      let size = Params.cluster_nodes system cluster in
      let total = Params.total_nodes system in
      (* Degenerate clusters fall back to whatever destinations
         exist, mirroring the workload generator's behaviour. *)
      if total - size = 0 then 0. else if size <= 1 then 1. else 1. -. p_local

(* The analytical model as it stood before the class-deduplicated
   kernel in [Fatnet_model.Eval] replaced it, kept verbatim as a
   test-only oracle (the way reference_event_queue.ml keeps the old
   event calendar):

   - [Intra], [Inter], [Latency] are the record-building reference
     path, Eqs. (1)-(39), one breakdown record per cluster and per
     ordered cluster pair;
   - [Tail] fits the shifted-exponential mixture from a [Latency.t]
     and inverts its list-based CDF;
   - [Workspace] is the allocation-free mirror of [Latency.mean] that
     re-ran the inter-cluster triple loop for every ordered pair;
   - [Utilization] is the ρ table as it stood before it read its rates
     from the kernel's terms: Eqs. 7, 10 and 22-25 recomputed per
     cluster and per ordered pair.

   The property suites in test_eval.ml and test_model.ml demand that
   the live kernel's mean and terms, its [Tail] fit and the live
   [Utilization] reproduce these to the bit.  Nothing here may change:
   a diff to this file is a diff to the model's answers. *)

module Params = Fatnet_model.Params
module Variants = Fatnet_model.Variants
module Service_time = Fatnet_model.Service_time
module Metrics = Fatnet_obs.Metrics

module Intra = struct
  type breakdown = {
    lambda_icn1 : float;
    eta_icn1 : float;
    mean_distance : float;
    network : float;
    waiting : float;
    tail : float;
    total : float;
  }

  let network_latency_for_hops ~eta ~t_cn ~t_cs ~message_flits ~h =
    if h < 1 then invalid_arg "Intra.network_latency_for_hops: h >= 1";
    let m = float_of_int message_flits in
    let stages = (2 * h) - 1 in
    let times =
      Fatnet_queueing.Blocking.stage_service_times ~final:(m *. t_cn)
        ~internal:(fun _ -> m *. t_cs)
        ~eta:(fun _ -> eta)
        ~stages
    in
    times.(0)

  let evaluate ?(variants = Variants.default) ~(system : Params.system)
      ~(message : Params.message) ~lambda_g ~cluster ~u () =
    if lambda_g < 0. then invalid_arg "Intra.evaluate: negative lambda_g";
    if u < 0. || u > 1. then invalid_arg "Intra.evaluate: u out of [0,1]";
    let c = system.Params.clusters.(cluster) in
    let n_i = c.Params.tree_depth in
    let nodes = Params.cluster_nodes system cluster in
    let dist = Fatnet_topology.Distance.create ~m:system.Params.m ~n:n_i in
    let t_cn = Service_time.t_cn c.Params.icn1 ~message in
    let t_cs = Service_time.t_cs c.Params.icn1 ~message in
    (* Eq. (7): total rate offered to ICN1(i). *)
    let lambda_icn1 = float_of_int nodes *. lambda_g *. (1. -. u) in
    (* Eq. (10) via the distance distribution. *)
    let eta_icn1 = Fatnet_topology.Distance.channel_rate dist ~lambda:lambda_icn1 in
    (* Eq. (5): probability-weighted head latency. *)
    let network =
      Fatnet_topology.Distance.fold dist ~init:0. ~f:(fun acc ~h ~p ->
          acc
          +. p
             *. network_latency_for_hops ~eta:eta_icn1 ~t_cn ~t_cs
                  ~message_flits:message.Params.length_flits ~h)
    in
    (* Eq. (19): tail-flit drain time. *)
    let tail =
      Fatnet_topology.Distance.fold dist ~init:0. ~f:(fun acc ~h ~p ->
          acc +. (p *. ((2. *. float_of_int (h - 1) *. t_cs) +. t_cn)))
    in
    (* Eqs. (15)–(18): M/G/1 source queue with the Draper–Ghosh
       variance approximation. *)
    let min_service = Service_time.message_time t_cn ~message in
    let variance =
      match variants.Variants.source_variance with
      | Variants.Draper_ghosh -> Fatnet_numerics.Float_utils.square (network -. min_service)
      | Variants.Zero -> 0.
    in
    let source_lambda =
      match variants.Variants.source_rate with
      | Variants.Per_node -> lambda_g *. (1. -. u)
      | Variants.Network_total -> lambda_icn1
    in
    let waiting =
      Fatnet_queueing.Mg1.waiting_time ~lambda:source_lambda
        ~service:{ Fatnet_queueing.Mg1.mean = network; variance }
    in
    {
      lambda_icn1;
      eta_icn1;
      mean_distance = Fatnet_topology.Distance.mean_links dist;
      network;
      waiting;
      tail;
      total = waiting +. network +. tail;
    }
end

module Inter = struct
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

  (* Head-flit latency of one (r, v, l) journey: K = r + v + 2l - 1
     stages, ECN1(i) for stages [0, r), ICN2 for [r, r + 2l - 1),
     ECN1(j) for the rest; the final stage is the switch-to-node hop in
     cluster j (Eqs. 26-30). *)
  let journey_latency ~message_flits ~r ~v ~l ~t_cs_e_i ~t_cs_i2 ~t_cs_e_j ~t_cn_e_j ~eta_ecn1
      ~eta_icn2_relaxed =
    let m = float_of_int message_flits in
    let stages = r + v + (2 * l) - 1 in
    let icn2_end = r + (2 * l) - 1 in
    let internal k = if k < r then m *. t_cs_e_i else if k < icn2_end then m *. t_cs_i2 else m *. t_cs_e_j in
    let eta k = if k >= r && k < icn2_end then eta_icn2_relaxed else eta_ecn1 in
    let times =
      Fatnet_queueing.Blocking.stage_service_times ~final:(m *. t_cn_e_j) ~internal ~eta ~stages
    in
    times.(0)

  (* Eq. (34): tail-flit drain of one (r, v, l) journey. *)
  let journey_tail ~r ~v ~l ~t_cs_e_i ~t_cs_i2 ~t_cs_e_j ~t_cn_e_j =
    (float_of_int (r - 1) *. t_cs_e_i)
    +. (float_of_int (v - 1) *. t_cs_e_j)
    +. (2. *. float_of_int l *. t_cs_i2)
    +. t_cn_e_j

  let evaluate ?(variants = Variants.default) ~(system : Params.system)
      ~(message : Params.message) ~lambda_g ~cluster ~u () =
    if lambda_g < 0. then invalid_arg "Inter.evaluate: negative lambda_g";
    let c_count = Params.cluster_count system in
    if c_count < 2 then invalid_arg "Inter.evaluate: needs at least two clusters";
    let m_flits = message.Params.length_flits in
    let src = system.Params.clusters.(cluster) in
    let n_i = src.Params.tree_depth in
    let nodes_i = Params.cluster_nodes system cluster in
    let dist_i = Fatnet_topology.Distance.create ~m:system.Params.m ~n:n_i in
    let dist_c = Fatnet_topology.Distance.create ~m:system.Params.m ~n:system.Params.icn2_depth in
    let t_cs_e_i = Service_time.t_cs src.Params.ecn1 ~message in
    let t_cn_e_i = Service_time.t_cn src.Params.ecn1 ~message in
    let t_cs_i2 = Service_time.t_cs system.Params.icn2 ~message in
    let delta =
      if variants.Variants.use_relaxing_factor then
        Service_time.relaxing_factor ~ecn1:src.Params.ecn1 ~icn2:system.Params.icn2
      else 1.
    in
    let u_i = u cluster in
    let pair j =
      let dst = system.Params.clusters.(j) in
      let n_j = dst.Params.tree_depth in
      let nodes_j = Params.cluster_nodes system j in
      let dist_j = Fatnet_topology.Distance.create ~m:system.Params.m ~n:n_j in
      let t_cs_e_j = Service_time.t_cs dst.Params.ecn1 ~message in
      let t_cn_e_j = Service_time.t_cn dst.Params.ecn1 ~message in
      let u_j = u j in
      (* Eq. (22): traffic carried by the ECN1 pipeline for this pair. *)
      let outgoing_i = float_of_int nodes_i *. u_i and outgoing_j = float_of_int nodes_j *. u_j in
      let lambda_ecn1 = lambda_g *. (outgoing_i +. outgoing_j) in
      (* Eq. (23): per-C/D rate offered to ICN2, per the variant. *)
      let lambda_icn2 =
        match variants.Variants.lambda_i2 with
        | Variants.Pair_average -> lambda_g *. (outgoing_i +. outgoing_j) /. 2.
        | Variants.Size_scaled ->
            lambda_g
            *. (outgoing_i +. outgoing_j)
            *. float_of_int (nodes_i + nodes_j)
            /. (2. *. float_of_int nodes_i *. float_of_int nodes_j)
      in
      (* Eqs. (24)-(25): per-channel rates. *)
      let eta_ecn1 = Fatnet_topology.Distance.channel_rate dist_i ~lambda:lambda_ecn1 in
      let eta_icn2 =
        lambda_icn2
        *. Fatnet_topology.Distance.mean_links dist_c
        /. (4. *. float_of_int system.Params.icn2_depth)
      in
      let eta_icn2_relaxed = eta_icn2 *. delta in
      (* Eqs. (20)-(21): probability-weighted merged-pipeline latency. *)
      let network = ref 0. and tail = ref 0. in
      Fatnet_topology.Distance.fold dist_i ~init:() ~f:(fun () ~h:r ~p:p_r ->
          Fatnet_topology.Distance.fold dist_j ~init:() ~f:(fun () ~h:v ~p:p_v ->
              Fatnet_topology.Distance.fold dist_c ~init:() ~f:(fun () ~h:l ~p:p_l ->
                  let p = p_r *. p_v *. p_l in
                  network :=
                    !network
                    +. p
                       *. journey_latency ~message_flits:m_flits ~r ~v ~l ~t_cs_e_i ~t_cs_i2
                            ~t_cs_e_j ~t_cn_e_j ~eta_ecn1 ~eta_icn2_relaxed;
                  tail :=
                    !tail +. (p *. journey_tail ~r ~v ~l ~t_cs_e_i ~t_cs_i2 ~t_cs_e_j ~t_cn_e_j))));
      let network = !network and tail = !tail in
      (* Eq. (31): M/G/1 source queue for the egress path; the minimum
         service is the node-to-switch hop in ECN1(i) (Eq. 17's
         analogue). *)
      let min_service = Service_time.message_time t_cn_e_i ~message in
      let variance =
        match variants.Variants.source_variance with
        | Variants.Draper_ghosh -> Fatnet_numerics.Float_utils.square (network -. min_service)
        | Variants.Zero -> 0.
      in
      let source_lambda =
        match variants.Variants.source_rate with
        | Variants.Per_node -> lambda_g *. u_i
        | Variants.Network_total -> lambda_ecn1
      in
      let waiting =
        Fatnet_queueing.Mg1.waiting_time ~lambda:source_lambda
          ~service:{ Fatnet_queueing.Mg1.mean = network; variance }
      in
      (* Eqs. (36)-(37): concentrator and dispatcher buffers, each an
         M/G/1 queue with service M·t_cs(ICN2) and Draper-Ghosh-style
         variance from the network mismatch. *)
      let cd_service = Service_time.message_time t_cs_i2 ~message in
      let cd_variance =
        Fatnet_numerics.Float_utils.square
          (cd_service -. Service_time.message_time t_cs_e_i ~message)
      in
      let cd_one =
        Fatnet_queueing.Mg1.waiting_time ~lambda:lambda_icn2
          ~service:{ Fatnet_queueing.Mg1.mean = cd_service; variance = cd_variance }
      in
      let cd_wait = 2. *. cd_one in
      {
        dest = j;
        lambda_ecn1;
        lambda_icn2;
        eta_ecn1;
        eta_icn2;
        network;
        waiting;
        tail;
        cd_wait;
        latency = waiting +. network +. tail;
      }
    in
    (* Destinations ascending, skipping the source — as an array, so
       the Eq. (35)/(38) sums run through [Float_utils.sum_array]
       (same left-to-right association as the list folds they replace,
       hence the same bits) without the init/filter/map list chain. *)
    let pair_arr = Array.init (c_count - 1) (fun k -> pair (if k < cluster then k else k + 1)) in
    let count = float_of_int (c_count - 1) in
    (* Eqs. (35), (38), (39). *)
    let l_ex =
      Fatnet_numerics.Float_utils.sum_array (Array.map (fun p -> p.latency) pair_arr) /. count
    in
    let w_d =
      Fatnet_numerics.Float_utils.sum_array (Array.map (fun p -> p.cd_wait) pair_arr) /. count
    in
    { l_ex; w_d; total = l_ex +. w_d; pairs = Array.to_list pair_arr }
end

module Latency = struct
  type cluster_result = {
    cluster : int;
    nodes : int;
    u : float;
    intra : Intra.breakdown;
    inter : Inter.breakdown option;
    combined : float;
  }

  type t = { mean_latency : float; clusters : cluster_result list }

  let outgoing_probability ~system ~cluster =
    let total = Params.total_nodes system in
    let nodes = Params.cluster_nodes system cluster in
    if total <= 1 then 0.
    else 1. -. (float_of_int (nodes - 1) /. float_of_int (total - 1))

  let evaluate ?(variants = Variants.default) ?outgoing ~system ~message ~lambda_g () =
    Metrics.incr (Metrics.counter (Metrics.ambient ()) "model_evaluations");
    Params.validate_exn system;
    let c_count = Params.cluster_count system in
    let u =
      match outgoing with
      | Some f -> f
      | None -> fun k -> outgoing_probability ~system ~cluster:k
    in
    let cluster_result i =
      let u_i = u i in
      let intra = Intra.evaluate ~variants ~system ~message ~lambda_g ~cluster:i ~u:u_i () in
      let inter =
        if c_count < 2 then None
        else Some (Inter.evaluate ~variants ~system ~message ~lambda_g ~cluster:i ~u ())
      in
      let combined =
        match inter with
        | None -> intra.Intra.total
        | Some ex -> (u_i *. ex.Inter.total) +. ((1. -. u_i) *. intra.Intra.total)
      in
      { cluster = i; nodes = Params.cluster_nodes system i; u = u_i; intra; inter; combined }
    in
    let clusters = List.init c_count cluster_result in
    let total_nodes = float_of_int (Params.total_nodes system) in
    let mean_latency =
      List.fold_left
        (fun acc r -> acc +. (float_of_int r.nodes /. total_nodes *. r.combined))
        0. clusters
    in
    { mean_latency; clusters }

  let mean ?variants ?outgoing ~system ~message ~lambda_g () =
    (evaluate ?variants ?outgoing ~system ~message ~lambda_g ()).mean_latency

  let is_saturated ?variants ~system ~message ~lambda_g () =
    let l = mean ?variants ~system ~message ~lambda_g () in
    not (Fatnet_numerics.Float_utils.is_finite l)

  let saturation_rate ?variants ?(tol = 1e-9) ~system ~message () =
    let saturated lambda_g = is_saturated ?variants ~system ~message ~lambda_g () in
    let hi = Fatnet_numerics.Solver.find_upper_bracket ~f:saturated ~lo:1e-9 () in
    let rate =
      if hi <= 1e-9 then hi
      else Fatnet_numerics.Solver.boundary ~tol ~pred:saturated ~lo:0. ~hi ()
    in
    Metrics.set
      (Metrics.gauge (Metrics.ambient ()) "model_saturation_rate"
         ~help:"Last saturation rate located by the solver (per-node message rate)")
      rate;
    rate
end

module Tail = struct
  (* The mean model (Eqs. 1-39) decomposes every message's latency into
     a deterministic transmission part (the probability-weighted
     network head latency plus the tail-flit drain) and the random
     M/G/1 waiting components (the source queue, and for inter-cluster
     traffic the two C/D buffers).  This module turns that decomposition
     into a latency *distribution*: each (cluster, traffic-class)
     component becomes a shifted exponential — a deterministic floor
     plus a wait that is zero with probability 1 - sigma and
     exponential with mean wait_mean / sigma otherwise — and the system
     law is the node- and class-weighted mixture.

     The exponential fit is exact for the M/M/1 waiting time
     (P(W > t) = rho e^[-(1-rho) mu t], i.e. sigma = rho and
     E[W] = wait_mean) and is the standard single-moment
     approximation for M/G/1 tails; composite waits (source queue plus
     two C/D queues) keep the summed mean and take
     sigma = 1 - prod (1 - rho_k), the probability that at least one of
     the independent queues is busy — a two-parameter phase-type
     collapse of the convolution.  Quantiles come from inverting the
     mixture CDF by bisection, so predicted p50/p90/p99/p999 line up
     with the simulator's ladder. *)

  type component = {
    weight : float;  (* mixture probability: node share x class share *)
    floor : float;  (* deterministic network + tail-drain latency *)
    wait_mean : float;  (* mean of the waiting components, Eq. (15)/(31)/(36) *)
    sigma : float;  (* P(wait > 0): the fitted queue-busy probability *)
  }

  type t = { mean : float; components : component list }

  let clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

  (* P(W <= t) of one component's wait: a mass of 1 - sigma at zero
     plus sigma x Exponential(sigma / wait_mean), so E[W] = wait_mean. *)
  let component_cdf c t =
    if t < c.floor then 0.
    else if c.sigma <= 0. || c.wait_mean <= 0. then 1.
    else 1. -. (c.sigma *. exp (-.c.sigma *. (t -. c.floor) /. c.wait_mean))

  let cdf t x =
    List.fold_left (fun acc c -> acc +. (c.weight *. component_cdf c x)) 0. t.components

  let complementary_cdf t x = 1. -. cdf t x

  let is_finite_t t =
    Fatnet_numerics.Float_utils.is_finite t.mean
    && List.for_all
         (fun c ->
           Float.is_finite c.floor && Float.is_finite c.wait_mean && Float.is_finite c.sigma)
         t.components

  let quantile t q =
    if not (q > 0. && q < 1.) then invalid_arg "Tail.quantile: q must be in (0,1)";
    if t.components = [] || not (is_finite_t t) then infinity
    else begin
      (* Smallest x with F(x) >= q.  F is monotone, 0 below the least
         floor; double an upper bracket out from the largest floor,
         then bisect to relative precision well below anything the
         figures or tables render. *)
      let lo0 = List.fold_left (fun a c -> Float.min a c.floor) infinity t.components in
      let hi0 = List.fold_left (fun a c -> Float.max a c.floor) 0. t.components in
      let rec widen hi n =
        if cdf t hi >= q || n > 128 then hi else widen (hi *. 2.) (n + 1)
      in
      let hi = widen (Float.max (2. *. hi0) 1e-12) 0 in
      if cdf t hi < q then infinity
      else begin
        let lo = ref lo0 and hi = ref hi in
        for _ = 1 to 100 do
          let mid = 0.5 *. (!lo +. !hi) in
          if cdf t mid >= q then hi := mid else lo := mid
        done;
        !hi
      end
    end

  let of_latency ?(variants = Variants.default) ~(system : Params.system)
      ~(message : Params.message) ~lambda_g (l : Latency.t) =
    let total_nodes = float_of_int (Params.total_nodes system) in
    let cd_service = Service_time.message_time (Service_time.t_cs system.Params.icn2 ~message) ~message in
    let components =
      List.concat_map
        (fun (r : Latency.cluster_result) ->
          let node_share = float_of_int r.Latency.nodes /. total_nodes in
          let intra = r.Latency.intra in
          (* Eq. (15)'s source queue: rho recovers exactly the
             utilization Mg1.waiting_time saw (service mean = the
             network latency, arrival rate per the source-rate
             variant). *)
          let intra_lambda =
            match variants.Variants.source_rate with
            | Variants.Per_node -> lambda_g *. (1. -. r.Latency.u)
            | Variants.Network_total -> intra.Intra.lambda_icn1
          in
          let intra_c =
            {
              weight = node_share *. (1. -. r.Latency.u);
              floor = intra.Intra.network +. intra.Intra.tail;
              wait_mean = intra.Intra.waiting;
              sigma = clamp01 (intra_lambda *. intra.Intra.network);
            }
          in
          let inter_cs =
            match r.Latency.inter with
            | None -> []
            | Some ex ->
                let pair_count = float_of_int (List.length ex.Inter.pairs) in
                List.map
                  (fun (p : Inter.pair_breakdown) ->
                    let src_lambda =
                      match variants.Variants.source_rate with
                      | Variants.Per_node -> lambda_g *. r.Latency.u
                      | Variants.Network_total -> p.Inter.lambda_ecn1
                    in
                    let rho_src = clamp01 (src_lambda *. p.Inter.network) in
                    let rho_cd = clamp01 (p.Inter.lambda_icn2 *. cd_service) in
                    (* Source wait + two C/D waits: summed means, busy
                       probability of the three-queue composite. *)
                    {
                      weight = node_share *. r.Latency.u /. pair_count;
                      floor = p.Inter.network +. p.Inter.tail;
                      wait_mean = p.Inter.waiting +. p.Inter.cd_wait;
                      sigma =
                        1. -. ((1. -. rho_src) *. (1. -. rho_cd) *. (1. -. rho_cd));
                    })
                  ex.Inter.pairs
          in
          intra_c :: inter_cs)
        l.Latency.clusters
    in
    { mean = l.Latency.mean_latency; components }

  let evaluate ?variants ?outgoing ~system ~message ~lambda_g () =
    let l = Latency.evaluate ?variants ?outgoing ~system ~message ~lambda_g () in
    of_latency ?variants ~system ~message ~lambda_g l
end

module Workspace = struct
  type cluster_pre = {
    (* Eq. (2)/(3) constants *)
    u : float;
    one_minus_u : float;
    outgoing : float;  (* N_i · U_i *)
    weight : float;  (* N_i / N *)
    (* intra (ICN1) constants *)
    nodes_f : float;
    probs : float array;  (* P(h), h = index + 1, for the depth-n_i tree *)
    ml : float;  (* mean links of the ICN1 distance distribution *)
    chan_denom : float;  (* 4 · n_i · N(n_i), Eq. (10) denominator *)
    final_icn1 : float;  (* M · t_cn(ICN1) — also Eq. (17)'s service floor *)
    internal_icn1 : float;  (* M · t_cs(ICN1) *)
    tail_intra : float;  (* Eq. (19), λ-invariant *)
    (* inter (ECN1/ICN2) constants *)
    int_e : float;  (* M · t_cs(ECN1) *)
    final_e : float;  (* M · t_cn(ECN1) — Eq. (31)'s service floor *)
    delta : float;  (* Eq. (28) relaxing factor, 1. when disabled *)
    cd_variance : float;  (* Eq. (37) variance term, λ-invariant *)
  }

  type pair_pre = {
    dest : int;
    sum_outgoing : float;  (* N_i·U_i + N_j·U_j, Eq. (22) *)
    size_c : float;  (* N_i + N_j (Size_scaled numerator) *)
    size_d : float;  (* 2·N_i·N_j (Size_scaled denominator) *)
    tail_pair : float;  (* Eq. (34) probability-weighted tail, λ-invariant *)
  }

  type workspace = {
    system : Params.system;
    message : Params.message;
    variants : Variants.t;
    c_count : int;
    count_f : float;  (* C - 1 *)
    clusters : cluster_pre array;
    pairs : pair_pre array array;  (* pairs.(i).(k): k-th destination ≠ i, ascending *)
    probs_c : float array;  (* ICN2 distance distribution *)
    ml_c : float;
    icn2_denom : float;  (* 4 · n_c, Eq. (25) denominator *)
    int_i2 : float;  (* M · t_cs(ICN2) — also Eq. (36)'s C/D service *)
    use_dg : bool;
    per_node : bool;
    pair_average : bool;
    scratch : float array;
    (* Cached (registry, counter) so the hot path never does a registry
       lookup: revalidated by physical equality on the ambient. *)
    mutable mreg : Metrics.t;
    mutable mctr : Metrics.counter;
  }

  let probs_of dist =
    Array.init (Fatnet_topology.Distance.n dist) (fun k ->
        Fatnet_topology.Distance.probability dist (k + 1))

  let workspace ?(variants = Variants.default) ?outgoing ~system ~message () =
    Params.validate_exn system;
    let c_count = Params.cluster_count system in
    let u =
      match outgoing with
      | Some f -> f
      | None -> fun k -> Latency.outgoing_probability ~system ~cluster:k
    in
    let m_f = float_of_int message.Params.length_flits in
    let dist_c =
      Fatnet_topology.Distance.create ~m:system.Params.m ~n:system.Params.icn2_depth
    in
    let t_cs_i2 = Service_time.t_cs system.Params.icn2 ~message in
    let int_i2 = Service_time.message_time t_cs_i2 ~message in
    let total_nodes_f = float_of_int (Params.total_nodes system) in
    let clusters =
      Array.init c_count (fun i ->
          let c = system.Params.clusters.(i) in
          let u_i = u i in
          if u_i < 0. || u_i > 1. then invalid_arg "Eval.workspace: u out of [0,1]";
          let nodes = Params.cluster_nodes system i in
          let dist = Fatnet_topology.Distance.create ~m:system.Params.m ~n:c.Params.tree_depth in
          let t_cn = Service_time.t_cn c.Params.icn1 ~message in
          let t_cs = Service_time.t_cs c.Params.icn1 ~message in
          let tail_intra =
            (* Eq. (19) verbatim, including the fold order. *)
            Fatnet_topology.Distance.fold dist ~init:0. ~f:(fun acc ~h ~p ->
                acc +. (p *. ((2. *. float_of_int (h - 1) *. t_cs) +. t_cn)))
          in
          let t_cs_e = Service_time.t_cs c.Params.ecn1 ~message in
          let t_cn_e = Service_time.t_cn c.Params.ecn1 ~message in
          let int_e = Service_time.message_time t_cs_e ~message in
          let delta =
            if variants.Variants.use_relaxing_factor then
              Service_time.relaxing_factor ~ecn1:c.Params.ecn1 ~icn2:system.Params.icn2
            else 1.
          in
          let cd_variance =
            Fatnet_numerics.Float_utils.square
              (int_i2 -. Service_time.message_time t_cs_e ~message)
          in
          {
            u = u_i;
            one_minus_u = 1. -. u_i;
            outgoing = float_of_int nodes *. u_i;
            weight = float_of_int nodes /. total_nodes_f;
            nodes_f = float_of_int nodes;
            probs = probs_of dist;
            ml = Fatnet_topology.Distance.mean_links dist;
            chan_denom =
              4.
              *. float_of_int (Fatnet_topology.Distance.n dist)
              *. float_of_int (Fatnet_topology.Distance.node_count dist);
            final_icn1 = m_f *. t_cn;
            internal_icn1 = m_f *. t_cs;
            tail_intra;
            int_e;
            final_e = m_f *. t_cn_e;
            delta;
            cd_variance;
          })
    in
    (* Raw per-cluster ECN1 service times, needed once more for the
       λ-invariant Eq. (34) tail sums. *)
    let t_cs_e_raw =
      Array.init c_count (fun i ->
          Service_time.t_cs system.Params.clusters.(i).Params.ecn1 ~message)
    in
    let t_cn_e_raw =
      Array.init c_count (fun i ->
          Service_time.t_cn system.Params.clusters.(i).Params.ecn1 ~message)
    in
    let probs_c = probs_of dist_c in
    let pairs =
      if c_count < 2 then Array.make c_count [||]
      else
        Array.init c_count (fun i ->
            let cp = clusters.(i) in
            Array.init (c_count - 1) (fun k ->
                let j = if k < i then k else k + 1 in
                let cq = clusters.(j) in
                let t_cs_e_i = t_cs_e_raw.(i) in
                let t_cs_e_j = t_cs_e_raw.(j) in
                let t_cn_e_j = t_cn_e_raw.(j) in
                (* Eq. (34) weighted over the (r, v, l) journey mix —
                   the same triple fold and accumulation as
                   [Inter.evaluate], just hoisted out of the λ loop. *)
                let tail = ref 0. in
                Array.iteri
                  (fun ri p_r ->
                    let r = ri + 1 in
                    Array.iteri
                      (fun vi p_v ->
                        let v = vi + 1 in
                        Array.iteri
                          (fun li p_l ->
                            let l = li + 1 in
                            let p = p_r *. p_v *. p_l in
                            tail :=
                              !tail
                              +. (p
                                 *. ((float_of_int (r - 1) *. t_cs_e_i)
                                    +. (float_of_int (v - 1) *. t_cs_e_j)
                                    +. (2. *. float_of_int l *. t_cs_i2)
                                    +. t_cn_e_j)))
                          probs_c)
                      cq.probs)
                  cp.probs;
                let nodes_i = Params.cluster_nodes system i in
                let nodes_j = Params.cluster_nodes system j in
                {
                  dest = j;
                  sum_outgoing = cp.outgoing +. cq.outgoing;
                  size_c = float_of_int (nodes_i + nodes_j);
                  size_d = 2. *. cp.nodes_f *. cq.nodes_f;
                  tail_pair = !tail;
                }))
    in
    let reg = Metrics.ambient () in
    {
      system;
      message;
      variants;
      c_count;
      count_f = float_of_int (c_count - 1);
      clusters;
      pairs;
      probs_c;
      ml_c = Fatnet_topology.Distance.mean_links dist_c;
      icn2_denom = 4. *. float_of_int system.Params.icn2_depth;
      int_i2;
      use_dg = variants.Variants.source_variance = Variants.Draper_ghosh;
      per_node = variants.Variants.source_rate = Variants.Per_node;
      pair_average = variants.Variants.lambda_i2 = Variants.Pair_average;
      scratch = Array.make 8 0.;
      mreg = reg;
      mctr = Metrics.counter reg "model_evaluations";
    }

  let system ws = ws.system
  let message ws = ws.message
  let variants ws = ws.variants

  (* Scratch slots: 0 = Eq. (3) accumulator, 1 = network accumulator,
     2 = stage walk service time, 3 = stage walk downstream waits,
     4 = Eq. (35) latency sum, 5 = Eq. (38) C/D wait sum. *)

  (* Same-module mirror of [Mg1.waiting_time_mv], verbatim: without
     flambda a cross-module float call boxes three arguments and the
     result, which alone costs ~23 kB per [mean_into] on org_544.
     Inlined here the whole evaluation stays on the float registers.
     The bit-identity suite pins this against the real Mg1. *)
  let[@inline] mg1_wait ~lambda ~mean ~variance =
    if mean < 0. then invalid_arg "Mg1: negative service mean";
    if variance < 0. then invalid_arg "Mg1: negative service variance";
    if lambda < 0. then invalid_arg "Mg1.waiting_time: negative arrival rate";
    if lambda = 0. then 0.
    else
      let rho = lambda *. mean in
      if rho >= 1. then infinity
      else lambda *. ((mean *. mean) +. variance) /. (2. *. (1. -. rho))

  let mean_into ws ~lambda_g =
    if lambda_g < 0. then invalid_arg "Eval.mean_into: negative lambda_g";
    let reg = Metrics.ambient () in
    if reg != ws.mreg then begin
      ws.mreg <- reg;
      ws.mctr <- Metrics.counter reg "model_evaluations"
    end;
    Metrics.incr ws.mctr;
    let acc = ws.scratch in
    acc.(0) <- 0.;
    for i = 0 to ws.c_count - 1 do
      let cp = ws.clusters.(i) in
      (* ---- intra, Eqs. (5)-(19) ---- *)
      let lambda_icn1 = cp.nodes_f *. lambda_g *. cp.one_minus_u in
      let eta_icn1 = lambda_icn1 *. cp.ml /. cp.chan_denom in
      acc.(1) <- 0.;
      let nh = Array.length cp.probs in
      for hi = 0 to nh - 1 do
        (* Eq. (14)'s backward walk, scalarized: only stage 0's service
           time is consumed and each wait reads only the next stage's,
           so two scalars replace the stage array. *)
        let stages = (2 * (hi + 1)) - 1 in
        acc.(2) <- cp.final_icn1;
        acc.(3) <- 0.;
        for _k = stages - 2 downto 0 do
          acc.(3) <- acc.(3) +. (0.5 *. eta_icn1 *. acc.(2) *. acc.(2));
          acc.(2) <- cp.internal_icn1 +. acc.(3)
        done;
        acc.(1) <- acc.(1) +. (cp.probs.(hi) *. acc.(2))
      done;
      let network = acc.(1) in
      let variance =
        if ws.use_dg then begin
          let d = network -. cp.final_icn1 in
          d *. d
        end
        else 0.
      in
      let source_lambda = if ws.per_node then lambda_g *. cp.one_minus_u else lambda_icn1 in
      let waiting = mg1_wait ~lambda:source_lambda ~mean:network ~variance in
      let intra_total = waiting +. network +. cp.tail_intra in
      let combined =
        if ws.c_count < 2 then intra_total
        else begin
          (* ---- inter, Eqs. (20)-(39) ---- *)
          acc.(4) <- 0.;
          acc.(5) <- 0.;
          let prs = ws.pairs.(i) in
          let nl = Array.length ws.probs_c in
          for k = 0 to Array.length prs - 1 do
            let pr = prs.(k) in
            let cq = ws.clusters.(pr.dest) in
            let lambda_ecn1 = lambda_g *. pr.sum_outgoing in
            let lambda_icn2 =
              if ws.pair_average then lambda_g *. pr.sum_outgoing /. 2.
              else lambda_g *. pr.sum_outgoing *. pr.size_c /. pr.size_d
            in
            let eta_ecn1 = lambda_ecn1 *. cp.ml /. cp.chan_denom in
            let eta_icn2 = lambda_icn2 *. ws.ml_c /. ws.icn2_denom in
            let eta_icn2_relaxed = eta_icn2 *. cp.delta in
            acc.(1) <- 0.;
            let nr = Array.length cp.probs and nv = Array.length cq.probs in
            for ri = 0 to nr - 1 do
              let r = ri + 1 in
              for vi = 0 to nv - 1 do
                let v = vi + 1 in
                for li = 0 to nl - 1 do
                  let l = li + 1 in
                  let p = cp.probs.(ri) *. cq.probs.(vi) *. ws.probs_c.(li) in
                  let stages = r + v + (2 * l) - 1 in
                  let icn2_end = r + (2 * l) - 1 in
                  acc.(2) <- cq.final_e;
                  acc.(3) <- 0.;
                  for k2 = stages - 2 downto 0 do
                    let s = k2 + 1 in
                    let eta =
                      if s >= r && s < icn2_end then eta_icn2_relaxed else eta_ecn1
                    in
                    acc.(3) <- acc.(3) +. (0.5 *. eta *. acc.(2) *. acc.(2));
                    let internal =
                      if k2 < r then cp.int_e
                      else if k2 < icn2_end then ws.int_i2
                      else cq.int_e
                    in
                    acc.(2) <- internal +. acc.(3)
                  done;
                  acc.(1) <- acc.(1) +. (p *. acc.(2))
                done
              done
            done;
            let network = acc.(1) in
            let variance =
              if ws.use_dg then begin
                let d = network -. cp.final_e in
                d *. d
              end
              else 0.
            in
            let source_lambda = if ws.per_node then lambda_g *. cp.u else lambda_ecn1 in
            let waiting = mg1_wait ~lambda:source_lambda ~mean:network ~variance in
            let cd_one =
              mg1_wait ~lambda:lambda_icn2 ~mean:ws.int_i2 ~variance:cp.cd_variance
            in
            acc.(4) <- acc.(4) +. (waiting +. network +. pr.tail_pair);
            acc.(5) <- acc.(5) +. (2. *. cd_one)
          done;
          let l_ex = acc.(4) /. ws.count_f in
          let w_d = acc.(5) /. ws.count_f in
          let inter_total = l_ex +. w_d in
          (cp.u *. inter_total) +. (cp.one_minus_u *. intra_total)
        end
      in
      acc.(0) <- acc.(0) +. (cp.weight *. combined)
    done;
    acc.(0)

  let is_saturated ws ~lambda_g =
    not (Fatnet_numerics.Float_utils.is_finite (mean_into ws ~lambda_g))

  let saturation_rate ?(tol = 1e-9) ws =
    let saturated lambda_g = is_saturated ws ~lambda_g in
    let hi = Fatnet_numerics.Solver.find_upper_bracket ~f:saturated ~lo:1e-9 () in
    if hi <= 1e-9 then hi else Fatnet_numerics.Solver.boundary ~tol ~pred:saturated ~lo:0. ~hi ()
end

(* The live module's types, so entries compare structurally. *)
module Utilization = struct
  type resource = Fatnet_model.Utilization.resource =
    | Intra_channel of int
    | Intra_source of int
    | Egress_channel of int * int
    | Egress_source of int
    | Icn2_channel of int * int
    | Cd_queue of int * int

  type entry = Fatnet_model.Utilization.entry = {
    resource : resource;
    rho : float;
    saturates_at : float;
  }

  let entry resource rho ~lambda_g =
    {
      resource;
      rho;
      saturates_at = (if rho > 0. then lambda_g /. rho else infinity);
    }

  let analyze ?(variants = Variants.default) ~system ~message ~lambda_g () =
    Params.validate_exn system;
    if not (lambda_g > 0.) then invalid_arg "Utilization.analyze: lambda_g must be positive";
    let c_count = Params.cluster_count system in
    let u k = Params.outgoing_probability ~system ~cluster:k in
    let m = float_of_int message.Params.length_flits in
    let dist_c = Fatnet_topology.Distance.create ~m:system.Params.m ~n:system.Params.icn2_depth in
    let t_cs_i2 = Service_time.t_cs system.Params.icn2 ~message in
    let entries = ref [] in
    let push e = entries := e :: !entries in
    for i = 0 to c_count - 1 do
      let c = system.Params.clusters.(i) in
      let nodes = float_of_int (Params.cluster_nodes system i) in
      let u_i = u i in
      let dist_i = Fatnet_topology.Distance.create ~m:system.Params.m ~n:c.Params.tree_depth in
      (* ICN1: channel occupancy is the message transfer time at local
         speed (Eq. 14's internal stage service). *)
      let t_cs_i = Service_time.t_cs c.Params.icn1 ~message in
      let lambda_icn1 = nodes *. lambda_g *. (1. -. u_i) in
      let eta_icn1 = Fatnet_topology.Distance.channel_rate dist_i ~lambda:lambda_icn1 in
      push (entry (Intra_channel i) (eta_icn1 *. m *. t_cs_i) ~lambda_g);
      (* Source queues: per-node rate times the head-latency floor. *)
      let t_cn_i = Service_time.t_cn c.Params.icn1 ~message in
      push (entry (Intra_source i) (lambda_g *. (1. -. u_i) *. m *. t_cn_i) ~lambda_g);
      let t_cn_e = Service_time.t_cn c.Params.ecn1 ~message in
      push (entry (Egress_source i) (lambda_g *. u_i *. m *. t_cn_e) ~lambda_g);
      (* Pairwise inter-cluster resources (Eqs. 22-25, 37). *)
      for j = 0 to c_count - 1 do
        if j <> i then begin
          let nodes_j = float_of_int (Params.cluster_nodes system j) in
          let u_j = u j in
          let lambda_ecn1 = lambda_g *. ((nodes *. u_i) +. (nodes_j *. u_j)) in
          let t_cs_e = Service_time.t_cs c.Params.ecn1 ~message in
          let eta_ecn1 = Fatnet_topology.Distance.channel_rate dist_i ~lambda:lambda_ecn1 in
          push (entry (Egress_channel (i, j)) (eta_ecn1 *. m *. t_cs_e) ~lambda_g);
          let lambda_icn2 =
            match variants.Variants.lambda_i2 with
            | Variants.Pair_average -> lambda_g *. ((nodes *. u_i) +. (nodes_j *. u_j)) /. 2.
            | Variants.Size_scaled ->
                lambda_g
                *. ((nodes *. u_i) +. (nodes_j *. u_j))
                *. (nodes +. nodes_j) /. (2. *. nodes *. nodes_j)
          in
          let eta_icn2 =
            lambda_icn2
            *. Fatnet_topology.Distance.mean_links dist_c
            /. (4. *. float_of_int system.Params.icn2_depth)
          in
          push (entry (Icn2_channel (i, j)) (eta_icn2 *. m *. t_cs_i2) ~lambda_g);
          push (entry (Cd_queue (i, j)) (lambda_icn2 *. m *. t_cs_i2) ~lambda_g)
        end
      done
    done;
    List.sort (fun a b -> Float.compare b.rho a.rho) !entries
end

(* The model kernel: the Eqs. (1)-(39) latency arithmetic behind the
   mean, the latency distribution, the per-cluster breakdown and the
   resource utilizations.

   A [workspace] is built once per (system, message, variants,
   pattern).  It groups the clusters into classes of bitwise-equal
   raw inputs — tree depth, ICN1 and ECN1 parameters, outgoing
   probability U — and the ordered cluster pairs into (source class,
   destination class) pair classes, and precomputes each class's
   λ-invariant constants: service times, distance distributions,
   the Eq. (19)/(34) tail sums.  The keys are raw inputs, not derived
   floats: when M is not a power of two, M·t_cs rounds, so two
   distinct t_cs can share it while Eq. (34) reads the raw t_cs.

   [mean_into] evaluates the intra-cluster terms once per cluster
   class and the inter-cluster (r, v, l) journey loop once per pair
   class, storing each term in the workspace's [terms] arrays, then
   replays the Eq. (35)/(38)/(1)/(3) sums cluster by cluster and
   destination by destination in ascending order.  Equal inputs give
   equal IEEE-754 results, and every sum sees the operands of the
   per-pair evaluation in the per-pair order, so the answer is the
   bits the undeduplicated model computes.  test/reference_model.ml
   keeps that model frozen, and the property suites pin the mean,
   every breakdown field and the tail fit against it.

   Operand order is part of the contract: [*.] and [+.] are
   left-associative and each expression keeps the reference's
   association; every stage of the stage walks is
   [Blocking.stage_service_times]'s step, scalar for scalar.  The
   walks share prefixes (see [mean_into]): a longer walk continues a
   shorter one from its stored end instead of starting over, which
   repeats the same steps on the same operands, so the bits do not
   move. *)

module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace

(* λ-invariant constants of one cluster class. *)
type cluster_class = {
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
  tail_intra : float;  (* Eq. (19) *)
  (* inter (ECN1/ICN2) constants *)
  int_e : float;  (* M · t_cs(ECN1) *)
  final_e : float;  (* M · t_cn(ECN1) — Eq. (31)'s service floor *)
  delta : float;  (* Eq. (28) relaxing factor, 1. when disabled *)
  cd_variance : float;  (* Eq. (37) variance term *)
}

(* λ-invariant constants of one (source class, destination class)
   pair class. *)
type pair_class = {
  src : cluster_class;
  dst : cluster_class;
  sum_outgoing : float;  (* N_i·U_i + N_j·U_j, Eq. (22) *)
  size_c : float;  (* N_i + N_j (Size_scaled numerator) *)
  size_d : float;  (* 2·N_i·N_j (Size_scaled denominator) *)
  tail_pair : float;  (* Eq. (34) probability-weighted tail *)
}

type terms = {
  cluster_class : int array;
  pair_class : int array array;
  u : float array;
  lambda_icn1 : float array;
  eta_icn1 : float array;
  mean_distance : float array;
  intra_network : float array;
  intra_waiting : float array;
  intra_tail : float array;
  intra_total : float array;
  lambda_ecn1 : float array;
  lambda_icn2 : float array;
  eta_ecn1 : float array;
  eta_icn2 : float array;
  pair_network : float array;
  pair_waiting : float array;
  pair_tail : float array;
  cd_wait : float array;
  pair_latency : float array;
  l_ex : float array;
  w_d : float array;
  inter_total : float array;
  combined : float array;
}

type workspace = {
  system : Params.system;
  message : Params.message;
  variants : Variants.t;
  c_count : int;
  count_f : float;  (* C - 1 *)
  cclasses : cluster_class array;
  pclasses : pair_class array;
  probs_c : float array;  (* ICN2 distance distribution *)
  ml_c : float;
  icn2_denom : float;  (* 4 · n_c, Eq. (25) denominator *)
  int_i2 : float;  (* M · t_cs(ICN2) — also Eq. (36)'s C/D service *)
  use_dg : bool;
  per_node : bool;
  pair_average : bool;
  terms : terms;
  (* The tail mixture's λ-invariant half, shared by every fit: one
     weight and one class index per (cluster, traffic class)
     component, intra first, then each destination ascending. *)
  tail_weight : float array;
  tail_cls : int array;
  (* The end of each inter-cluster (r, v, l) walk of the pair class
     being evaluated, indexed in Eq. (20)'s (r, v, l) order: sized for
     the largest pair class, which [mean_into]'s unchecked accesses
     rely on. *)
  walk_ends : float array;
  (* Cached (registry, counter) so the hot path never does a registry
     lookup: revalidated by physical equality on the ambient. *)
  mutable mreg : Metrics.t;
  mutable mctr : Metrics.counter;
}

let probs_of dist =
  Array.init (Fatnet_topology.Distance.n dist) (fun k ->
      Fatnet_topology.Distance.probability dist (k + 1))

(* Number the items [0, n) by key, in order of first occurrence: the
   class of each item and the first item of each class. *)
let classify n key =
  let seen = Hashtbl.create 16 and firsts = ref [] in
  let cls =
    Array.init n (fun x ->
        let k = key x in
        match Hashtbl.find_opt seen k with
        | Some c -> c
        | None ->
            let c = Hashtbl.length seen in
            Hashtbl.add seen k c;
            firsts := x :: !firsts;
            c)
  in
  (cls, Array.of_list (List.rev !firsts))

let workspace ?(variants = Variants.default) ?outgoing ~system ~message () =
  Params.validate_exn system;
  let c_count = Params.cluster_count system in
  let u =
    match outgoing with
    | Some f -> f
    | None -> fun k -> Params.outgoing_probability ~system ~cluster:k
  in
  let us =
    Array.init c_count (fun i ->
        let u_i = u i in
        if u_i < 0. || u_i > 1. then invalid_arg "Eval.workspace: u out of [0,1]";
        u_i)
  in
  let bits = Int64.bits_of_float in
  let net_key (n : Params.network) =
    (bits n.Params.bandwidth, bits n.Params.network_latency, bits n.Params.switch_latency)
  in
  let cluster_class, class_reps =
    classify c_count (fun i ->
        let c = system.Params.clusters.(i) in
        (c.Params.tree_depth, net_key c.Params.icn1, net_key c.Params.ecn1, bits us.(i)))
  in
  let m_f = float_of_int message.Params.length_flits in
  let dist_c =
    Fatnet_topology.Distance.create ~m:system.Params.m ~n:system.Params.icn2_depth
  in
  let t_cs_i2 = Service_time.t_cs system.Params.icn2 ~message in
  let int_i2 = Service_time.message_time t_cs_i2 ~message in
  let total_nodes_f = float_of_int (Params.total_nodes system) in
  let cclasses =
    Array.map
      (fun i ->
        let c = system.Params.clusters.(i) in
        let u_i = us.(i) in
        let nodes = Params.cluster_nodes system i in
        let dist = Fatnet_topology.Distance.create ~m:system.Params.m ~n:c.Params.tree_depth in
        let t_cn = Service_time.t_cn c.Params.icn1 ~message in
        let t_cs = Service_time.t_cs c.Params.icn1 ~message in
        let tail_intra =
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
      class_reps
  in
  (* Ordered pairs (i, j), j ≠ i ascending, flattened row by row;
     none for a single cluster. *)
  let per_row = c_count - 1 in
  let dest i k = if k < i then k else k + 1 in
  let flat_pair_class, pair_reps =
    classify (c_count * per_row) (fun x ->
        let i = x / per_row in
        (cluster_class.(i), cluster_class.(dest i (x mod per_row))))
  in
  let pair_class =
    Array.init c_count (fun i -> Array.sub flat_pair_class (i * per_row) per_row)
  in
  let probs_c = probs_of dist_c in
  let pclasses =
    Array.map
      (fun x ->
        let i = x / per_row in
        let j = dest i (x mod per_row) in
        let cp = cclasses.(cluster_class.(i)) and cq = cclasses.(cluster_class.(j)) in
        let t_cs_e_i = Service_time.t_cs system.Params.clusters.(i).Params.ecn1 ~message in
        let t_cs_e_j = Service_time.t_cs system.Params.clusters.(j).Params.ecn1 ~message in
        let t_cn_e_j = Service_time.t_cn system.Params.clusters.(j).Params.ecn1 ~message in
        (* Eq. (34) weighted over the (r, v, l) journey mix. *)
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
          src = cp;
          dst = cq;
          sum_outgoing = cp.outgoing +. cq.outgoing;
          size_c = float_of_int (nodes_i + nodes_j);
          size_d = 2. *. cp.nodes_f *. cq.nodes_f;
          tail_pair = !tail;
        })
      pair_reps
  in
  let n_cc = Array.length cclasses and n_pc = Array.length pclasses in
  let count_f = float_of_int per_row in
  let tail_weight, tail_cls =
    let comps =
      List.concat
        (List.init c_count (fun i ->
             let a = cluster_class.(i) in
             let cp = cclasses.(a) in
             (cp.weight *. cp.one_minus_u, a)
             :: List.map
                  (fun p -> (cp.weight *. cp.u /. count_f, n_cc + p))
                  (Array.to_list pair_class.(i))))
    in
    (Array.of_list (List.map fst comps), Array.of_list (List.map snd comps))
  in
  let per_cluster_class f = Array.map f cclasses
  and per_pair_class f = Array.map f pclasses
  and zeros n = Array.make n 0. in
  let terms =
    {
      cluster_class;
      pair_class;
      u = per_cluster_class (fun c -> c.u);
      lambda_icn1 = zeros n_cc;
      eta_icn1 = zeros n_cc;
      mean_distance = per_cluster_class (fun c -> c.ml);
      intra_network = zeros n_cc;
      intra_waiting = zeros n_cc;
      intra_tail = per_cluster_class (fun c -> c.tail_intra);
      intra_total = zeros n_cc;
      lambda_ecn1 = zeros n_pc;
      lambda_icn2 = zeros n_pc;
      eta_ecn1 = zeros n_pc;
      eta_icn2 = zeros n_pc;
      pair_network = zeros n_pc;
      pair_waiting = zeros n_pc;
      pair_tail = per_pair_class (fun p -> p.tail_pair);
      cd_wait = zeros n_pc;
      pair_latency = zeros n_pc;
      l_ex = zeros c_count;
      w_d = zeros c_count;
      inter_total = zeros c_count;
      combined = zeros c_count;
    }
  in
  let reg = Metrics.ambient () in
  {
    system;
    message;
    variants;
    c_count;
    count_f;
    cclasses;
    pclasses;
    probs_c;
    ml_c = Fatnet_topology.Distance.mean_links dist_c;
    icn2_denom = 4. *. float_of_int system.Params.icn2_depth;
    int_i2;
    use_dg = variants.Variants.source_variance = Variants.Draper_ghosh;
    per_node = variants.Variants.source_rate = Variants.Per_node;
    pair_average = variants.Variants.lambda_i2 = Variants.Pair_average;
    terms;
    tail_weight;
    tail_cls;
    walk_ends =
      Array.make
        (Array.fold_left
           (fun n pr ->
             max n (Array.length pr.src.probs * Array.length pr.dst.probs * Array.length probs_c))
           0 pclasses)
        0.;
    mreg = reg;
    mctr = Metrics.counter reg "model_evaluations";
  }

let terms ws = ws.terms

(* Same-module copy of [Mg1.waiting_time_mv], verbatim: without
   flambda a cross-module float call boxes three arguments and the
   result, which alone costs ~23 kB per [mean_into] on org_544.
   Inlined here the whole evaluation stays on the float registers.
   The frozen reference model calls the real Mg1, so the property
   suites pin this copy against it. *)
let[@inline] mg1_wait ~lambda ~mean ~variance =
  if mean < 0. then invalid_arg "Mg1: negative service mean";
  if variance < 0. then invalid_arg "Mg1: negative service variance";
  if lambda < 0. then invalid_arg "Mg1.waiting_time: negative arrival rate";
  if lambda = 0. then 0.
  else
    let rho = lambda *. mean in
    if rho >= 1. then infinity
    else lambda *. ((mean *. mean) +. variance) /. (2. *. (1. -. rho))

(* The stage walks are Eq. (14)'s backward walk on two local float
   refs, which ocamlopt keeps unboxed in registers: [t_*] is the
   service time of the stage just reached, [w_*] the downstream waits.
   Each stage walked past does [w <- w + 0.5·η·t·t], then
   [t <- internal + w]; only stage 0's service time is consumed and
   each wait reads only the next stage's, so two scalars replace
   [Blocking.stage_service_times]'s stage array.  [half_*] is the
   step's first product, 0.5·η, formed once per class. *)
let mean_into ws ~lambda_g =
  if lambda_g < 0. then invalid_arg "Eval.mean_into: negative lambda_g";
  let reg = Metrics.ambient () in
  if reg != ws.mreg then begin
    ws.mreg <- reg;
    ws.mctr <- Metrics.counter reg "model_evaluations"
  end;
  Metrics.incr ws.mctr;
  let t = ws.terms in
  (* ---- intra, Eqs. (5)-(19), once per cluster class ---- *)
  for a = 0 to Array.length ws.cclasses - 1 do
    let cp = ws.cclasses.(a) in
    let lambda_icn1 = cp.nodes_f *. lambda_g *. cp.one_minus_u in
    let eta_icn1 = lambda_icn1 *. cp.ml /. cp.chan_denom in
    let half_icn1 = 0.5 *. eta_icn1 in
    (* Eq. (5): an h-hop message crosses 2h - 1 stages, so the walk
       for h + 1 hops is the walk for h continued by two stages.  One
       walk serves every hop count, and the sum folds as it extends. *)
    let network = ref 0. and t_h = ref cp.final_icn1 and w_h = ref 0. in
    for hi = 0 to Array.length cp.probs - 1 do
      if hi > 0 then begin
        w_h := !w_h +. (half_icn1 *. !t_h *. !t_h);
        t_h := cp.internal_icn1 +. !w_h;
        w_h := !w_h +. (half_icn1 *. !t_h *. !t_h);
        t_h := cp.internal_icn1 +. !w_h
      end;
      (* hi < Array.length cp.probs *)
      network := !network +. (Array.unsafe_get cp.probs hi *. !t_h)
    done;
    let network = !network in
    let variance =
      if ws.use_dg then begin
        let d = network -. cp.final_icn1 in
        d *. d
      end
      else 0.
    in
    let source_lambda = if ws.per_node then lambda_g *. cp.one_minus_u else lambda_icn1 in
    let waiting = mg1_wait ~lambda:source_lambda ~mean:network ~variance in
    t.lambda_icn1.(a) <- lambda_icn1;
    t.eta_icn1.(a) <- eta_icn1;
    t.intra_network.(a) <- network;
    t.intra_waiting.(a) <- waiting;
    t.intra_total.(a) <- waiting +. network +. cp.tail_intra
  done;
  (* ---- inter, Eqs. (20)-(37), once per pair class ---- *)
  let nl = Array.length ws.probs_c in
  for pc = 0 to Array.length ws.pclasses - 1 do
    let pr = ws.pclasses.(pc) in
    let cp = pr.src and cq = pr.dst in
    let lambda_ecn1 = lambda_g *. pr.sum_outgoing in
    let lambda_icn2 =
      if ws.pair_average then lambda_g *. pr.sum_outgoing /. 2.
      else lambda_g *. pr.sum_outgoing *. pr.size_c /. pr.size_d
    in
    let eta_ecn1 = lambda_ecn1 *. cp.ml /. cp.chan_denom in
    let eta_icn2 = lambda_icn2 *. ws.ml_c /. ws.icn2_denom in
    let eta_icn2_relaxed = eta_icn2 *. cp.delta in
    let half_ecn1 = 0.5 *. eta_ecn1 and half_icn2 = 0.5 *. eta_icn2_relaxed in
    (* Eqs. (30) and (20).  Journey (r, v, l) crosses r + v + 2l - 1
       stages.  Walking back from the destination's final stage, its
       walk takes v - 1 destination stages (ECN1 rate, destination
       service), one ICN2 stage at the ECN1 rate, 2l - 2 ICN2 stages
       (relaxed ICN2 rate), one source stage at the ICN2 rate, then
       r - 1 source stages at the ECN1 rate.  So the walk for v + 1,
       l + 1 or r + 1 continues the one for v, l or r by one, two or
       one stages: walk each prefix once (through the destination
       cluster [t_v], through ICN2 [t_l], in full [t_r]), keep the
       end of every journey, then replay the probability-weighted sum
       in (r, v, l) order. *)
    let nr = Array.length cp.probs and nv = Array.length cq.probs in
    let t_v = ref cq.final_e and w_v = ref 0. in
    for vi = 0 to nv - 1 do
      if vi > 0 then begin
        w_v := !w_v +. (half_ecn1 *. !t_v *. !t_v);
        t_v := cq.int_e +. !w_v
      end;
      let w_l = ref (!w_v +. (half_ecn1 *. !t_v *. !t_v)) in
      let t_l = ref (ws.int_i2 +. !w_l) in
      for li = 0 to nl - 1 do
        if li > 0 then begin
          w_l := !w_l +. (half_icn2 *. !t_l *. !t_l);
          t_l := ws.int_i2 +. !w_l;
          w_l := !w_l +. (half_icn2 *. !t_l *. !t_l);
          t_l := ws.int_i2 +. !w_l
        end;
        let w_r = ref (!w_l +. (half_icn2 *. !t_l *. !t_l)) in
        let t_r = ref (cp.int_e +. !w_r) in
        for ri = 0 to nr - 1 do
          if ri > 0 then begin
            w_r := !w_r +. (half_ecn1 *. !t_r *. !t_r);
            t_r := cp.int_e +. !w_r
          end;
          (* < nr·nv·nl, and [workspace] sizes walk_ends by the largest
             nr·nv·nl over all pair classes *)
          Array.unsafe_set ws.walk_ends ((((ri * nv) + vi) * nl) + li) !t_r
        done
      done
    done;
    let network = ref 0. in
    for ri = 0 to nr - 1 do
      for vi = 0 to nv - 1 do
        (* ri < nr and vi < nv, the lengths of cp.probs and cq.probs *)
        let p_rv = Array.unsafe_get cp.probs ri *. Array.unsafe_get cq.probs vi in
        let base = ((ri * nv) + vi) * nl in
        for li = 0 to nl - 1 do
          (* li < nl = Array.length ws.probs_c; base + li < nr·nv·nl, as above *)
          let p = p_rv *. Array.unsafe_get ws.probs_c li in
          network := !network +. (p *. Array.unsafe_get ws.walk_ends (base + li))
        done
      done
    done;
    let network = !network in
    let variance =
      if ws.use_dg then begin
        let d = network -. cp.final_e in
        d *. d
      end
      else 0.
    in
    let source_lambda = if ws.per_node then lambda_g *. cp.u else lambda_ecn1 in
    let waiting = mg1_wait ~lambda:source_lambda ~mean:network ~variance in
    let cd_one = mg1_wait ~lambda:lambda_icn2 ~mean:ws.int_i2 ~variance:cp.cd_variance in
    t.lambda_ecn1.(pc) <- lambda_ecn1;
    t.lambda_icn2.(pc) <- lambda_icn2;
    t.eta_ecn1.(pc) <- eta_ecn1;
    t.eta_icn2.(pc) <- eta_icn2;
    t.pair_network.(pc) <- network;
    t.pair_waiting.(pc) <- waiting;
    t.cd_wait.(pc) <- 2. *. cd_one;
    t.pair_latency.(pc) <- waiting +. network +. pr.tail_pair
  done;
  (* ---- Eqs. (35), (38), (39), (1), (3), in cluster order ---- *)
  let mean = ref 0. in
  for i = 0 to ws.c_count - 1 do
    let a = t.cluster_class.(i) in
    let cp = ws.cclasses.(a) in
    let combined =
      if ws.c_count < 2 then t.intra_total.(a)
      else begin
        let latency = ref 0. and cd = ref 0. in
        let pcs = t.pair_class.(i) in
        for k = 0 to Array.length pcs - 1 do
          (* k < Array.length pcs, whose entries are pair-class numbers:
             indices of pair_latency and cd_wait *)
          let c = Array.unsafe_get pcs k in
          latency := !latency +. Array.unsafe_get t.pair_latency c;
          cd := !cd +. Array.unsafe_get t.cd_wait c
        done;
        let l_ex = !latency /. ws.count_f in
        let w_d = !cd /. ws.count_f in
        let inter_total = l_ex +. w_d in
        t.l_ex.(i) <- l_ex;
        t.w_d.(i) <- w_d;
        t.inter_total.(i) <- inter_total;
        (cp.u *. inter_total) +. (cp.one_minus_u *. t.intra_total.(a))
      end
    in
    t.combined.(i) <- combined;
    mean := !mean +. (cp.weight *. combined)
  done;
  !mean

let[@inline] clamp01 x = if x < 0. then 0. else if x > 1. then 1. else x

(* The tail fit reads the kernel's per-class terms.  Each class
   becomes a shifted exponential: the floor is the network head
   latency plus the tail-flit drain; the wait is zero with
   probability 1 - sigma and exponential with mean wait_mean / sigma
   otherwise.  That is exact for the M/M/1 waiting time
   (P(W > t) = rho e^[-(1-rho) mu t]) and the standard single-moment
   M/G/1 tail approximation.  The intra class's sigma is the source
   queue's utilization (rate per the source-rate variant, service
   mean = the network latency, exactly what [mg1_wait] saw); a pair
   class's composite wait (source queue plus two C/D buffers) keeps
   the summed mean and takes sigma = 1 - prod (1 - rho_k), the
   probability that at least one of the independent queues is busy.
   Weights and class indices do not depend on λ and come from the
   workspace; only the per-class arrays are fresh. *)
let tail ws ~lambda_g =
  let mean = mean_into ws ~lambda_g in
  let t = ws.terms in
  let n_cc = Array.length ws.cclasses in
  let n = n_cc + Array.length ws.pclasses in
  let floor = Array.make n 0. and wait_mean = Array.make n 0. and sigma = Array.make n 0. in
  for a = 0 to n_cc - 1 do
    let cp = ws.cclasses.(a) in
    let source_lambda = if ws.per_node then lambda_g *. cp.one_minus_u else t.lambda_icn1.(a) in
    floor.(a) <- t.intra_network.(a) +. cp.tail_intra;
    wait_mean.(a) <- t.intra_waiting.(a);
    sigma.(a) <- clamp01 (source_lambda *. t.intra_network.(a))
  done;
  for pc = 0 to Array.length ws.pclasses - 1 do
    let pr = ws.pclasses.(pc) in
    let source_lambda = if ws.per_node then lambda_g *. pr.src.u else t.lambda_ecn1.(pc) in
    let rho_src = clamp01 (source_lambda *. t.pair_network.(pc)) in
    let rho_cd = clamp01 (t.lambda_icn2.(pc) *. ws.int_i2) in
    floor.(n_cc + pc) <- t.pair_network.(pc) +. pr.tail_pair;
    wait_mean.(n_cc + pc) <- t.pair_waiting.(pc) +. t.cd_wait.(pc);
    sigma.(n_cc + pc) <- 1. -. ((1. -. rho_src) *. (1. -. rho_cd) *. (1. -. rho_cd))
  done;
  { Tail.mean; weight = ws.tail_weight; cls = ws.tail_cls; floor; wait_mean; sigma }

let quantile ws ~lambda_g ~q = Tail.quantile (tail ws ~lambda_g) q

let saturation_rate ?state ?(tol = 1e-9) ws =
  let saturated lambda_g =
    not (Fatnet_numerics.Float_utils.is_finite (mean_into ws ~lambda_g))
  in
  let rate =
    match state with
    | Some state -> Fatnet_numerics.Solver.boundary_warm ~tol ~state ~pred:saturated ~lo:0. ()
    | None ->
        (* The canonical cold sequence: bracket upward from 1e-9, then
           bisect the boundary. *)
        let hi = Fatnet_numerics.Solver.find_upper_bracket ~f:saturated ~lo:1e-9 () in
        if hi <= 1e-9 then hi
        else Fatnet_numerics.Solver.boundary ~tol ~pred:saturated ~lo:0. ~hi ()
  in
  Metrics.set
    (Metrics.gauge (Metrics.ambient ()) "model_saturation_rate"
       ~help:"Last saturation rate located by the solver (per-node message rate)")
    rate;
  rate

(* ---- the multicore batch engine ---- *)

module Pool = struct
  module Solver = Fatnet_numerics.Solver

  (* A persistent pool of [size - 1] worker domains plus the calling
     domain: the process's only domain executor.  Work distribution is
     one atomic claim counter: every domain, caller included, claims
     the next unclaimed task index until the batch is drained, so a
     domain stuck on a slow task never strands the rest of the batch.
     Tasks start in input order; callers that want a different start
     order reorder their input.

     Bit-identity under any claim interleaving holds because the
     output slot is addressed by the {e input index}, each task's
     value depends only on its own input and pure per-domain data —
     per-domain workspaces are identical pure data, scratch never
     crosses domains — and IEEE-754 ops are deterministic.  Which
     domain computes a task can never change what it writes. *)

  type ctx = {
    id : int;
    bstate : Solver.bracket_state;
    (* One cached workspace per domain, revalidated by physical
       equality on the inputs: batches iterate λ for one spec, or
       walk a small family of specs, so a 1-slot cache removes almost
       every rebuild without an unbounded table. *)
    mutable cached_ws : workspace option;
  }

  type job = {
    task : ctx -> int -> unit;
    n_tasks : int;
    next : int Atomic.t;
    regs : Metrics.t array; (* per-worker registries, absorbed after the join *)
    tracer : Trace.t; (* the caller's ambient trace, installed on every worker *)
    busy : float array; (* per-domain busy seconds for occupancy gauges *)
  }

  type t = {
    size : int;
    lock : Mutex.t;
    work : Condition.t;
    idle : Condition.t;
    mutable job : job option;
    mutable epoch : int;
    mutable pending : int;
    mutable stop : bool;
    mutable active : bool;
    mutable closed : bool;
    ctxs : ctx array;
    mutable workers : unit Domain.t array;
    err : (exn * Printexc.raw_backtrace) option Atomic.t;
    mutable last_busy : float array;
    (* The per-domain occupancy gauges as last registered, held per
       caller registry like [mreg]/[mctr]: a batch sets them without
       registering them. *)
    mutable occ_reg : Metrics.t;
    mutable occ : Metrics.gauge array;
  }

  let recommended_domains () = max 1 (Domain.recommended_domain_count ())

  let run_tasks t job ctx =
    let t0 = Metrics.now_seconds () in
    let continue = ref true in
    while !continue do
      if Atomic.get t.err <> None then continue := false
      else begin
        let i = Atomic.fetch_and_add job.next 1 in
        if i >= job.n_tasks then continue := false
        else
          try job.task ctx i
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set t.err None (Some (e, bt)));
            continue := false
      end
    done;
    job.busy.(ctx.id) <- job.busy.(ctx.id) +. (Metrics.now_seconds () -. t0)

  let worker_loop t idx () =
    let ctx = t.ctxs.(idx) in
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.lock;
      while (not t.stop) && t.epoch = !seen do
        Condition.wait t.work t.lock
      done;
      if t.stop then begin
        Mutex.unlock t.lock;
        running := false
      end
      else begin
        seen := t.epoch;
        let job = match t.job with Some j -> j | None -> assert false in
        Mutex.unlock t.lock;
        Metrics.with_ambient job.regs.(idx) (fun () ->
            Trace.with_ambient job.tracer (fun () -> run_tasks t job ctx));
        Mutex.lock t.lock;
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.signal t.idle;
        Mutex.unlock t.lock
      end
    done

  let create ?domains () =
    let size =
      match domains with
      | Some d -> if d < 1 then invalid_arg "Eval.Pool.create: domains must be >= 1" else d
      | None -> recommended_domains ()
    in
    let t =
      {
        size;
        lock = Mutex.create ();
        work = Condition.create ();
        idle = Condition.create ();
        job = None;
        epoch = 0;
        pending = 0;
        stop = false;
        active = false;
        closed = false;
        ctxs =
          Array.init size (fun id ->
              { id; bstate = Solver.bracket_state (); cached_ws = None });
        workers = [||];
        err = Atomic.make None;
        last_busy = Array.make size 0.;
        occ_reg = Metrics.disabled;
        occ = [||];
      }
    in
    t.workers <- Array.init (size - 1) (fun i -> Domain.spawn (worker_loop t (i + 1)));
    t

  let domains t = t.size
  let busy_seconds t = Array.copy t.last_busy

  let shutdown t =
    if not t.closed then begin
      t.closed <- true;
      Mutex.lock t.lock;
      t.stop <- true;
      Condition.broadcast t.work;
      Mutex.unlock t.lock;
      Array.iter Domain.join t.workers
    end

  let with_pool ?domains f =
    let t = create ?domains () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

  let map t ~f inputs =
    if t.closed then invalid_arg "Eval.Pool.map: pool is shut down";
    let n = Array.length inputs in
    let out = Array.make n None in
    let caller_reg = Metrics.ambient () in
    let enabled = Metrics.is_enabled caller_reg in
    (* Slot 0 is the caller: it keeps its own ambient registry, so
       only workers need fresh ones (absorbed after the join, exactly
       like the sweep engine's worker registries). *)
    let regs =
      Array.init t.size (fun i ->
          if i > 0 && enabled then Metrics.create () else Metrics.disabled)
    in
    let job =
      {
        task = (fun ctx i -> out.(i) <- Some (f ctx inputs.(i)));
        n_tasks = n;
        next = Atomic.make 0;
        regs;
        tracer = Trace.ambient ();
        busy = Array.make t.size 0.;
      }
    in
    Atomic.set t.err None;
    let t0 = Metrics.now_seconds () in
    Mutex.lock t.lock;
    if t.active then begin
      Mutex.unlock t.lock;
      invalid_arg "Eval.Pool.map: map is already running on this pool"
    end;
    t.active <- true;
    t.job <- Some job;
    t.epoch <- t.epoch + 1;
    t.pending <- t.size - 1;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    run_tasks t job t.ctxs.(0);
    Mutex.lock t.lock;
    while t.pending > 0 do
      Condition.wait t.idle t.lock
    done;
    t.job <- None;
    t.active <- false;
    t.last_busy <- job.busy;
    Mutex.unlock t.lock;
    let wall = Float.max (Metrics.now_seconds () -. t0) 1e-9 in
    if enabled then begin
      for i = 1 to t.size - 1 do
        Metrics.absorb caller_reg (Metrics.snapshot regs.(i))
      done;
      if caller_reg != t.occ_reg then begin
        t.occ_reg <- caller_reg;
        t.occ <-
          Array.init t.size (fun i ->
              Metrics.gauge caller_reg "pool_domain_occupancy"
                ~labels:[ ("domain", string_of_int i) ]
                ~help:"Peak busy fraction of each evaluation-pool domain over a batch")
      end;
      Array.iteri (fun i b -> Metrics.set_max t.occ.(i) (b /. wall)) job.busy
    end;
    (match Atomic.get t.err with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) out

  let ctx_id ctx = ctx.id
  let ctx_bracket ctx = ctx.bstate

  let ctx_workspace ctx ?(variants = Variants.default) ~system:sys ~message:msg () =
    match ctx.cached_ws with
    | Some w when w.system == sys && w.message == msg && w.variants == variants -> w
    | _ ->
        let w = workspace ~variants ~system:sys ~message:msg () in
        ctx.cached_ws <- Some w;
        w
end

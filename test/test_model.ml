(* Tests for the analytical model: parameters, service times,
   Eqs. (1)-(39) behavioural properties read off the kernel's terms,
   presets, utilization, patterns and the tail fit. *)

module P = Fatnet_model.Params
module ST = Fatnet_model.Service_time
module V = Fatnet_model.Variants
module Eval = Fatnet_model.Eval
module Pattern = Fatnet_model.Pattern
module Ref = Reference_model
module Presets = Fatnet_model.Presets

let check_float = Alcotest.(check (float 1e-9))

let message = Presets.message ~m_flits:32 ~d_m_bytes:256.

let small_system =
  P.homogeneous ~m:4 ~tree_depth:2 ~clusters:4 ~icn1:Presets.net1 ~ecn1:Presets.net2
    ~icn2:Presets.net1

(* ---- Params ---- *)

let cluster_sizes () =
  Alcotest.(check int) "m=8 n=3" 128 (P.cluster_size ~m:8 ~tree_depth:3);
  Alcotest.(check int) "m=4 n=5" 64 (P.cluster_size ~m:4 ~tree_depth:5);
  Alcotest.(check int) "m=4 n=1" 4 (P.cluster_size ~m:4 ~tree_depth:1)

let table1_organizations () =
  Alcotest.(check int) "N=1120" 1120 (P.total_nodes Presets.org_1120);
  Alcotest.(check int) "C=32" 32 (P.cluster_count Presets.org_1120);
  Alcotest.(check int) "n_c=2" 2 Presets.org_1120.P.icn2_depth;
  Alcotest.(check int) "N=544" 544 (P.total_nodes Presets.org_544);
  Alcotest.(check int) "C=16" 16 (P.cluster_count Presets.org_544);
  Alcotest.(check int) "n_c=3" 3 Presets.org_544.P.icn2_depth

let table2_networks () =
  check_float "net1 beta" (1. /. 500.) (P.beta Presets.net1);
  check_float "net2 beta" (1. /. 250.) (P.beta Presets.net2);
  check_float "net1 alpha_s" 0.02 Presets.net1.P.switch_latency;
  check_float "net2 alpha_n" 0.05 Presets.net2.P.network_latency

let icn2_depth_inference () =
  Alcotest.(check (option int)) "C=32 m=8" (Some 2) (P.icn2_depth_for ~m:8 ~clusters:32);
  Alcotest.(check (option int)) "C=16 m=4" (Some 3) (P.icn2_depth_for ~m:4 ~clusters:16);
  Alcotest.(check (option int)) "C=5 impossible" None (P.icn2_depth_for ~m:4 ~clusters:5)

let validation_rejects_bad_systems () =
  let bad_depth = { Presets.org_544 with P.icn2_depth = 2 } in
  Alcotest.(check bool) "wrong n_c" true (Result.is_error (P.validate bad_depth));
  let bad_net = { Presets.net1 with P.bandwidth = 0. } in
  let sys = P.homogeneous ~m:4 ~tree_depth:1 ~clusters:4 ~icn1:Presets.net1 ~ecn1:Presets.net2 ~icn2:Presets.net1 in
  let broken = { sys with P.icn2 = bad_net } in
  Alcotest.(check bool) "zero bandwidth" true (Result.is_error (P.validate broken))

let icn2_depth_edge_cases () =
  (* smallest arity: m/2 = 1, so only C = 2 has a depth *)
  Alcotest.(check (option int)) "m=2 C=2" (Some 1) (P.icn2_depth_for ~m:2 ~clusters:2);
  Alcotest.(check (option int)) "m=2 C=4 impossible" None (P.icn2_depth_for ~m:2 ~clusters:4);
  (* odd m truncates: m=7 indexes the same geometry as m=6 *)
  Alcotest.(check (option int)) "odd m=7 C=6" (Some 1) (P.icn2_depth_for ~m:7 ~clusters:6);
  Alcotest.(check (option int)) "odd m=7 C=18" (Some 2) (P.icn2_depth_for ~m:7 ~clusters:18);
  Alcotest.(check (option int)) "m=1 has no half" None (P.icn2_depth_for ~m:1 ~clusters:2);
  Alcotest.(check (option int)) "C=0" None (P.icn2_depth_for ~m:4 ~clusters:0);
  Alcotest.(check (option int)) "C=1" None (P.icn2_depth_for ~m:4 ~clusters:1)

let validation_edge_cases () =
  let is_err s = Result.is_error (P.validate s) in
  let sys = small_system in
  let with_cluster0 f =
    let clusters = Array.copy sys.P.clusters in
    clusters.(0) <- f clusters.(0);
    { sys with P.clusters }
  in
  Alcotest.(check bool) "odd m" true (is_err { sys with P.m = 5 });
  Alcotest.(check bool) "m=0" true (is_err { sys with P.m = 0 });
  Alcotest.(check bool) "no clusters" true (is_err { sys with P.clusters = [||] });
  Alcotest.(check bool) "zero tree depth" true
    (is_err (with_cluster0 (fun c -> { c with P.tree_depth = 0 })));
  Alcotest.(check bool) "negative icn1 bandwidth" true
    (is_err (with_cluster0 (fun c -> { c with P.icn1 = { c.P.icn1 with P.bandwidth = -5. } })));
  Alcotest.(check bool) "negative ecn1 wire latency" true
    (is_err
       (with_cluster0 (fun c ->
            { c with P.ecn1 = { c.P.ecn1 with P.network_latency = -1. } })));
  Alcotest.(check bool) "negative icn2 switch latency" true
    (is_err { sys with P.icn2 = { sys.P.icn2 with P.switch_latency = -0.1 } });
  Alcotest.(check bool) "icn2_depth 0" true (is_err { sys with P.icn2_depth = 0 });
  (* C ≠ 2·(m/2)^(n_c): 4 clusters at m=8 cannot form any ICN2 tree *)
  Alcotest.check_raises "make_system with impossible C"
    (Invalid_argument
       "Params.make_system: no n_c satisfies C = 2*(m/2)^n_c for C = 4, m = 8") (fun () ->
      ignore
        (P.homogeneous ~m:8 ~tree_depth:1 ~clusters:4 ~icn1:Presets.net1 ~ecn1:Presets.net2
           ~icn2:Presets.net1));
  (* a single cluster never uses ICN2: any positive depth passes *)
  let solo =
    P.make_system ~m:4 ~icn2:Presets.net1
      [ { P.tree_depth = 2; icn1 = Presets.net1; ecn1 = Presets.net2 } ]
  in
  Alcotest.(check bool) "single cluster, any depth" true
    (Result.is_ok (P.validate { solo with P.icn2_depth = 7 }))

let scaled_icn2_bandwidth () =
  let scaled = Presets.with_icn2_bandwidth_scaled Presets.org_544 ~factor:1.2 in
  check_float "bandwidth x1.2" 600. scaled.P.icn2.P.bandwidth;
  (* untouched elsewhere *)
  check_float "ecn1 unchanged" 250. scaled.P.clusters.(0).P.ecn1.P.bandwidth

(* ---- Service times ---- *)

let service_time_forms () =
  (* Eq. (11): 0.5·α_n + d_m·β; Eq. (12): α_s + d_m·β. *)
  check_float "t_cn net1" ((0.5 *. 0.01) +. (256. /. 500.)) (ST.t_cn Presets.net1 ~message);
  check_float "t_cs net1" (0.02 +. (256. /. 500.)) (ST.t_cs Presets.net1 ~message);
  check_float "t_cs net2" (0.01 +. (256. /. 250.)) (ST.t_cs Presets.net2 ~message);
  check_float "message time" (32. *. 0.5) (ST.message_time 0.5 ~message)

let relaxing_factor_direction () =
  (* ICN2 (Net.1) is twice as fast as ECN1 (Net.2): δ must shrink the
     ICN2 waits. *)
  let d = ST.relaxing_factor ~ecn1:Presets.net2 ~icn2:Presets.net1 in
  check_float "delta = 1/2" 0.5 d

(* ---- Top level ---- *)

let outgoing_probability_eq2 () =
  (* Cluster 0 of org_544 has 16 nodes out of 544. *)
  check_float "U_0" (1. -. (15. /. 543.))
    (P.outgoing_probability ~system:Presets.org_544 ~cluster:0);
  (* single-cluster system: U = 0 *)
  let solo = P.homogeneous ~m:4 ~tree_depth:2 ~clusters:1 ~icn1:Presets.net1 ~ecn1:Presets.net2 ~icn2:Presets.net1 in
  check_float "U solo" 0. (P.outgoing_probability ~system:solo ~cluster:0)

let latency_weighted_average () =
  let ws = Eval.workspace ~system:small_system ~message () in
  let mean = Eval.mean_into ws ~lambda_g:1e-4 in
  let t = Eval.terms ws in
  let manual = ref 0. in
  Array.iteri
    (fun i combined ->
      manual := !manual +. (float_of_int (P.cluster_nodes small_system i) /. 32. *. combined))
    t.Eval.combined;
  check_float "Eq. (3)" !manual mean

let latency_single_cluster_is_intra () =
  let solo = P.homogeneous ~m:4 ~tree_depth:2 ~clusters:1 ~icn1:Presets.net1 ~ecn1:Presets.net2 ~icn2:Presets.net1 in
  let ws = Eval.workspace ~system:solo ~message () in
  ignore (Eval.mean_into ws ~lambda_g:1e-3);
  let t = Eval.terms ws in
  Alcotest.(check int) "one cluster" 1 (Array.length t.Eval.cluster_class);
  Alcotest.(check int) "no inter component" 0 (Array.length t.Eval.pair_class.(0));
  check_float "combined = intra" t.Eval.intra_total.(t.Eval.cluster_class.(0)) t.Eval.combined.(0)

let small_ws = Eval.workspace ~system:small_system ~message ()

let latency_monotone_in_lambda () =
  let prev = ref 0. in
  List.iter
    (fun lambda_g ->
      let l = Eval.mean_into small_ws ~lambda_g in
      Alcotest.(check bool) (Printf.sprintf "monotone at %g" lambda_g) true (l >= !prev);
      prev := l)
    [ 1e-6; 1e-5; 1e-4; 1e-3; 2e-3; 4e-3 ]

let latency_monotone_property =
  QCheck.Test.make ~name:"model latency is monotone in load" ~count:100
    QCheck.(pair (float_range 1e-6 4e-3) (float_range 1e-6 4e-3))
    (fun (l1, l2) ->
      let lo = Float.min l1 l2 and hi = Float.max l1 l2 in
      let f lambda_g = Eval.mean_into small_ws ~lambda_g in
      let a = f lo and b = f hi in
      (not (Float.is_finite a)) || (not (Float.is_finite b)) || a <= b +. 1e-9)

let bigger_flits_higher_latency =
  QCheck.Test.make ~name:"larger flits cost more" ~count:50
    QCheck.(float_range 1e-6 2e-3)
    (fun lambda_g ->
      let small = Presets.message ~m_flits:32 ~d_m_bytes:256. in
      let large = Presets.message ~m_flits:32 ~d_m_bytes:512. in
      let a = Eval.mean_into (Eval.workspace ~system:small_system ~message:small ()) ~lambda_g in
      let b = Eval.mean_into (Eval.workspace ~system:small_system ~message:large ()) ~lambda_g in
      (not (Float.is_finite b)) || a <= b +. 1e-9)

let longer_messages_higher_latency =
  QCheck.Test.make ~name:"longer messages cost more" ~count:50
    QCheck.(float_range 1e-6 2e-3)
    (fun lambda_g ->
      let short = Presets.message ~m_flits:32 ~d_m_bytes:256. in
      let long = Presets.message ~m_flits:64 ~d_m_bytes:256. in
      let a = Eval.mean_into (Eval.workspace ~system:small_system ~message:short ()) ~lambda_g in
      let b = Eval.mean_into (Eval.workspace ~system:small_system ~message:long ()) ~lambda_g in
      (not (Float.is_finite b)) || a <= b +. 1e-9)

let saturation_rate_brackets () =
  let sat = Eval.saturation_rate small_ws in
  Alcotest.(check bool) "finite before" true
    (Float.is_finite (Eval.mean_into small_ws ~lambda_g:(0.99 *. sat)));
  Alcotest.(check bool) "infinite after" false
    (Float.is_finite (Eval.mean_into small_ws ~lambda_g:(1.01 *. sat)))

let paper_saturation_points () =
  (* The C/D queue divergence must land at the x-axis extent of the
     paper's figures (see DESIGN.md): ~5.2e-4, ~2.6e-4, ~1.04e-3,
     ~5.2e-4 for Figs. 3-6. *)
  let check name sys m_flits expected =
    let msg = Presets.message ~m_flits ~d_m_bytes:256. in
    let sat = Eval.saturation_rate (Eval.workspace ~system:sys ~message:msg ()) in
    Alcotest.(check bool)
      (Printf.sprintf "%s within 10%% of %g (got %g)" name expected sat)
      true
      (Float.abs (sat -. expected) /. expected < 0.1)
  in
  check "fig3" Presets.org_1120 32 5.18e-4;
  check "fig4" Presets.org_1120 64 2.59e-4;
  check "fig5" Presets.org_544 32 1.038e-3;
  check "fig6" Presets.org_544 64 5.19e-4

let fig7_improvement_direction () =
  (* +20% ICN2 bandwidth must lower latency, more so at high load,
     and help N=544 relatively more than N=1120 (paper, Section 4). *)
  let msg = Presets.message ~m_flits:128 ~d_m_bytes:256. in
  let model sys = Eval.workspace ~system:sys ~message:msg () in
  let gain sys lambda_g =
    let base = Eval.mean_into (model sys) ~lambda_g in
    let inc =
      Eval.mean_into (model (Presets.with_icn2_bandwidth_scaled sys ~factor:1.2)) ~lambda_g
    in
    (base -. inc) /. base
  in
  let sat544 = Eval.saturation_rate (model Presets.org_544) in
  let sat1120 = Eval.saturation_rate (model Presets.org_1120) in
  let g544_low = gain Presets.org_544 (0.2 *. sat544) in
  let g544_high = gain Presets.org_544 (0.9 *. sat544) in
  let g1120_high = gain Presets.org_1120 (0.9 *. sat1120) in
  Alcotest.(check bool) "improvement positive" true (g544_low > 0.);
  Alcotest.(check bool) "bigger at high load" true (g544_high > g544_low);
  Alcotest.(check bool) "N=544 improves more than N=1120 at matched load" true
    (g544_high > g1120_high)

let heterogeneous_clusters_differ () =
  let ws = Eval.workspace ~system:Presets.org_544 ~message () in
  ignore (Eval.mean_into ws ~lambda_g:1e-4);
  let t = Eval.terms ws in
  let u i = t.Eval.u.(t.Eval.cluster_class.(i)) in
  Alcotest.(check bool) "different sizes" true
    (P.cluster_nodes Presets.org_544 0 <> P.cluster_nodes Presets.org_544 15);
  Alcotest.(check bool) "different U" true (Float.abs (u 0 -. u 15) > 1e-6);
  Alcotest.(check bool) "different latency" true
    (Float.abs (t.Eval.combined.(0) -. t.Eval.combined.(15)) > 1e-6)

(* ---- Variants ---- *)

let org_1120 ?variants () = Eval.workspace ?variants ~system:Presets.org_1120 ~message ()

let variant_network_total_saturates_earlier () =
  let sat_default = Eval.saturation_rate (org_1120 ()) in
  let variants = { V.default with V.source_rate = V.Network_total } in
  let sat_literal = Eval.saturation_rate (org_1120 ~variants ()) in
  Alcotest.(check bool) "literal reading saturates much earlier" true
    (sat_literal < 0.5 *. sat_default)

let variant_zero_variance_lowers_wait () =
  let lambda_g = 4e-4 in
  let base = Eval.mean_into (org_1120 ()) ~lambda_g in
  let zero =
    Eval.mean_into (org_1120 ~variants:{ V.default with V.source_variance = V.Zero } ()) ~lambda_g
  in
  Alcotest.(check bool) "M/D/1 source queue is faster" true (zero <= base)

let variant_lambda_i2_size_scaled_differs () =
  let lambda_g = 3e-4 in
  let base = Eval.mean_into (org_1120 ()) ~lambda_g in
  let scaled =
    Eval.mean_into (org_1120 ~variants:{ V.default with V.lambda_i2 = V.Size_scaled } ()) ~lambda_g
  in
  Alcotest.(check bool) "readings disagree" true (Float.abs (base -. scaled) > 1e-6)

(* ---- Component details, read off the kernel's terms ---- *)

(* The terms at [lambda_g], optionally with every cluster's outgoing
   probability forced to [u]. *)
let terms_at ?u ~system ~lambda_g () =
  let outgoing = Option.map (fun u _ -> u) u in
  let ws = Eval.workspace ?outgoing ~system ~message () in
  ignore (Eval.mean_into ws ~lambda_g);
  Eval.terms ws

let intra_zero_load_closed_form () =
  (* At λ→0 the network latency of a cluster with n=1 is M·t_cn and
     the tail time is t_cn (h=1 only). *)
  let sys = P.homogeneous ~m:8 ~tree_depth:1 ~clusters:8 ~icn1:Presets.net1 ~ecn1:Presets.net2 ~icn2:Presets.net1 in
  let t = terms_at ~u:0.9 ~system:sys ~lambda_g:0. () in
  let a = t.Eval.cluster_class.(0) in
  let t_cn = ST.t_cn Presets.net1 ~message in
  check_float "T_in" (32. *. t_cn) t.Eval.intra_network.(a);
  check_float "E_in" t_cn t.Eval.intra_tail.(a);
  check_float "W_in" 0. t.Eval.intra_waiting.(a)

let intra_lambda_eq7 () =
  let t = terms_at ~u:0.8 ~system:small_system ~lambda_g:1e-3 () in
  check_float "Eq. (7)" (8. *. 1e-3 *. 0.2) t.Eval.lambda_icn1.(t.Eval.cluster_class.(0))

let inter_pairs_cover_all_destinations () =
  let t = terms_at ~system:small_system ~lambda_g:1e-4 () in
  Alcotest.(check int) "C-1 pairs" 3 (Array.length t.Eval.pair_class.(1));
  (* Cluster 1 is the only one of its kind: had its own pair been
     evaluated, a (kind 1, kind 1) pair class would join the three
     others, and its row would not be one pair class throughout. *)
  let cluster tree_depth = { P.tree_depth; icn1 = Presets.net1; ecn1 = Presets.net2 } in
  let odd_one_out =
    P.make_system ~m:4 ~icn2:Presets.net1 [ cluster 2; cluster 1; cluster 2; cluster 2 ]
  in
  let t = terms_at ~system:odd_one_out ~lambda_g:1e-4 () in
  let row = t.Eval.pair_class.(1) in
  Alcotest.(check bool) "self excluded" true
    (Array.length t.Eval.pair_latency = 3 && Array.for_all (fun p -> p = row.(0)) row)

let inter_eq35_eq38 () =
  let t = terms_at ~system:small_system ~lambda_g:1e-4 () in
  let pcs = t.Eval.pair_class.(0) in
  let avg f = Array.fold_left (fun a p -> a +. f.(p)) 0. pcs /. 3. in
  check_float "Eq. (35)" (avg t.Eval.pair_latency) t.Eval.l_ex.(0);
  check_float "Eq. (38)" (avg t.Eval.cd_wait) t.Eval.w_d.(0);
  check_float "Eq. (39)" (t.Eval.l_ex.(0) +. t.Eval.w_d.(0)) t.Eval.inter_total.(0)

(* ---- Utilization ---- *)

let utilization_bottleneck_is_cd () =
  (* Section 4: the inter-cluster resources, the C/D in particular,
     bound the system for both Table-1 organizations. *)
  List.iter
    (fun sys ->
      let b = Fatnet_model.Utilization.bottleneck ~system:sys ~message () in
      match b.Fatnet_model.Utilization.resource with
      | Fatnet_model.Utilization.Cd_queue _ -> ()
      | r ->
          Alcotest.failf "expected the C/D queue, got %a" Fatnet_model.Utilization.pp_resource
            r)
    [ Presets.org_1120; Presets.org_544 ]

let utilization_predicts_saturation () =
  (* The bottleneck's saturates_at must agree with the latency
     divergence point within a few percent (the blocking recursion
     adds no divergence of its own at these parameters). *)
  List.iter
    (fun sys ->
      let b = Fatnet_model.Utilization.bottleneck ~system:sys ~message () in
      let sat = Eval.saturation_rate (Eval.workspace ~system:sys ~message ()) in
      let err =
        Float.abs (b.Fatnet_model.Utilization.saturates_at -. sat) /. sat
      in
      Alcotest.(check bool)
        (Printf.sprintf "bottleneck λ_sat %.4g vs model %.4g" b.Fatnet_model.Utilization.saturates_at sat)
        true (err < 0.05))
    [ Presets.org_1120; Presets.org_544 ]

let utilization_rho_linear_in_load () =
  let at lambda_g =
    List.hd (Fatnet_model.Utilization.analyze ~system:small_system ~message ~lambda_g ())
  in
  let a = at 1e-4 and b = at 2e-4 in
  check_float "rho scales linearly" (2. *. a.Fatnet_model.Utilization.rho)
    b.Fatnet_model.Utilization.rho

let utilization_sorted_descending () =
  let entries = Fatnet_model.Utilization.analyze ~system:Presets.org_544 ~message ~lambda_g:1e-4 () in
  let rhos = List.map (fun e -> e.Fatnet_model.Utilization.rho) entries in
  Alcotest.(check bool) "sorted" true (List.sort (fun a b -> Float.compare b a) rhos = rhos);
  Alcotest.(check bool) "non-empty" true (List.length entries > 16 * 3)

(* ---- Pattern extension ---- *)

let pattern_uniform_matches_eq2 () =
  for cluster = 0 to 3 do
    check_float "uniform pattern = Eq. (2)"
      (P.outgoing_probability ~system:small_system ~cluster)
      (Fatnet_model.Pattern.outgoing_probability Fatnet_model.Pattern.Uniform
         ~system:small_system ~cluster)
  done

let pattern_local_u () =
  check_float "U = 1 - p_local" 0.3
    (Fatnet_model.Pattern.outgoing_probability
       (Fatnet_model.Pattern.Local { p_local = 0.7 })
       ~system:small_system ~cluster:0)

(* The small system's mean under a pattern: the pattern's outgoing
   probabilities in place of Eq. (2). *)
let pattern_mean pattern ~lambda_g =
  let outgoing cluster = Pattern.outgoing_probability pattern ~system:small_system ~cluster in
  Eval.mean_into (Eval.workspace ~outgoing ~system:small_system ~message ()) ~lambda_g

let pattern_uniform_evaluate_matches_latency () =
  let lambda_g = 1e-3 in
  check_float "Pattern.Uniform = Eq. (2)"
    (Eval.mean_into small_ws ~lambda_g)
    (pattern_mean Pattern.Uniform ~lambda_g)

let pattern_locality_lowers_latency =
  QCheck.Test.make ~name:"more locality, lower predicted latency" ~count:50
    QCheck.(pair (float_range 0. 0.45) (float_range 1e-5 2e-3))
    (fun (p, lambda_g) ->
      let at p = pattern_mean (Pattern.Local { p_local = p }) ~lambda_g in
      let low = at p and high = at (p +. 0.5) in
      (not (Float.is_finite low)) || high <= low +. 1e-9)

(* ---- Tail (latency-distribution fit) ---- *)

module Tail = Fatnet_model.Tail

let org_544_tail lambda_g =
  Eval.tail (Eval.workspace ~system:Presets.org_544 ~message ()) ~lambda_g

(* The mixture is a *distribution* refinement of the mean model: its
   weights are a probability law over (cluster, class) components and
   its implied mean Σ w (floor + wait_mean) is exactly Eq. (3). *)
let tail_mixture_preserves_mean () =
  List.iter
    (fun lambda_g ->
      let t = org_544_tail lambda_g in
      let wsum = Array.fold_left ( +. ) 0. t.Tail.weight in
      let implied = ref 0. in
      Array.iteri
        (fun i w ->
          let c = t.Tail.cls.(i) in
          implied := !implied +. (w *. (t.Tail.floor.(c) +. t.Tail.wait_mean.(c))))
        t.Tail.weight;
      let implied = !implied in
      Alcotest.(check (float 1e-9)) "weights form a law" 1. wsum;
      Alcotest.(check (float 1e-6)) "implied mean is Eq. (3)"
        (Eval.mean_into (Eval.workspace ~system:Presets.org_544 ~message ()) ~lambda_g)
        implied;
      check_float "carried mean" t.Tail.mean implied)
    [ 1e-5; 1e-4; 3e-4 ]

let tail_cdf_monotone_and_bounded () =
  let t = org_544_tail 3e-4 in
  let xs = List.init 60 (fun i -> float_of_int i *. 10.) in
  let prev = ref 0. in
  List.iter
    (fun x ->
      let f = Tail.cdf t x in
      Alcotest.(check bool) "cdf in [0,1]" true (0. <= f && f <= 1.);
      Alcotest.(check bool) "cdf non-decreasing" true (f >= !prev);
      check_float "complementary" (1. -. f) (Tail.complementary_cdf t x);
      prev := f)
    xs

let tail_quantile_inverts_cdf () =
  let t = org_544_tail 3e-4 in
  let prev = ref 0. in
  List.iter
    (fun q ->
      let x = Tail.quantile t q in
      Alcotest.(check bool) "finite below saturation" true (Float.is_finite x);
      Alcotest.(check bool) "cdf(quantile q) >= q" true (Tail.cdf t x >= q -. 1e-9);
      (* smallest such x: a hair below, the CDF is under q *)
      Alcotest.(check bool) "minimal" true (Tail.cdf t (x *. 0.999) < q +. 1e-9);
      Alcotest.(check bool) "monotone in q" true (x >= !prev);
      prev := x)
    [ 0.5; 0.9; 0.99; 0.999 ];
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Tail.quantile: q must be in (0,1)") (fun () ->
      ignore (Tail.quantile t 1.))

let tail_quantile_monotone_in_load () =
  let at lambda_g =
    Tail.quantile (org_544_tail lambda_g) 0.99
  in
  let light = at 1e-5 and mid = at 2e-4 and heavy = at 5e-4 in
  Alcotest.(check bool) "p99 grows with load" true (light < mid && mid < heavy);
  (* past saturation the mixture diverges like the mean does *)
  let sat = Eval.saturation_rate (Eval.workspace ~system:Presets.org_544 ~message ()) in
  Alcotest.(check bool) "saturated p99 is infinite" true (at (1.05 *. sat) = infinity)

(* M/M/1 check of the component fit: with sigma = rho and
   E[W] = rho/(mu - lambda) / ... the shifted-exponential wait CDF is
   the exact M/M/1 waiting-time law P(W <= t) = 1 - rho e^{-(mu - lambda) t}. *)
let tail_component_is_exact_mm1 () =
  let mu = 2.0 and lambda = 1.2 in
  let rho = lambda /. mu in
  let wait_mean = rho /. (mu -. lambda) in
  let t =
    {
      Tail.mean = wait_mean;
      weight = [| 1. |];
      cls = [| 0 |];
      floor = [| 0. |];
      wait_mean = [| wait_mean |];
      sigma = [| rho |];
    }
  in
  List.iter
    (fun x ->
      let exact = 1. -. (rho *. exp (-.(mu -. lambda) *. x)) in
      Alcotest.(check (float 1e-12)) "M/M/1 waiting CDF" exact (Tail.cdf t x))
    [ 0.; 0.3; 1.; 2.5; 7. ]

let tail_eval_quantile_matches_direct () =
  let ws = Eval.workspace ~system:Presets.org_544 ~message () in
  let direct =
    Ref.Tail.quantile (Ref.Tail.evaluate ~system:Presets.org_544 ~message ~lambda_g:2e-4 ()) 0.99
  in
  check_float "Eval.quantile = frozen Tail path"
    direct
    (Fatnet_model.Eval.quantile ws ~lambda_g:2e-4 ~q:0.99)

(* ---- Sweeps ---- *)

(* cluster_model --sweep's grid: [0, 0.95 × saturation], every point
   finite. *)
let sweep_saturation_all_finite () =
  let hi = 0.95 *. Eval.saturation_rate small_ws in
  for i = 0 to 7 do
    let lambda_g = float_of_int i /. 7. *. hi in
    Alcotest.(check bool)
      (Printf.sprintf "finite at %g" lambda_g)
      true
      (Float.is_finite (Eval.mean_into small_ws ~lambda_g))
  done

let () =
  Alcotest.run "model"
    [
      ( "params",
        [
          Alcotest.test_case "cluster sizes" `Quick cluster_sizes;
          Alcotest.test_case "Table 1" `Quick table1_organizations;
          Alcotest.test_case "Table 2" `Quick table2_networks;
          Alcotest.test_case "icn2 depth inference" `Quick icn2_depth_inference;
          Alcotest.test_case "validation" `Quick validation_rejects_bad_systems;
          Alcotest.test_case "icn2 depth edge cases" `Quick icn2_depth_edge_cases;
          Alcotest.test_case "validation edge cases" `Quick validation_edge_cases;
          Alcotest.test_case "scaled icn2" `Quick scaled_icn2_bandwidth;
        ] );
      ( "service times",
        [
          Alcotest.test_case "Eqs. (11)-(12)" `Quick service_time_forms;
          Alcotest.test_case "relaxing factor" `Quick relaxing_factor_direction;
        ] );
      ( "latency",
        [
          Alcotest.test_case "Eq. (2)" `Quick outgoing_probability_eq2;
          Alcotest.test_case "Eq. (3) weighting" `Quick latency_weighted_average;
          Alcotest.test_case "single cluster" `Quick latency_single_cluster_is_intra;
          Alcotest.test_case "monotone" `Quick latency_monotone_in_lambda;
          Alcotest.test_case "saturation bracket" `Quick saturation_rate_brackets;
          Alcotest.test_case "paper saturation points" `Quick paper_saturation_points;
          Alcotest.test_case "fig7 direction" `Quick fig7_improvement_direction;
          Alcotest.test_case "heterogeneity" `Quick heterogeneous_clusters_differ;
          QCheck_alcotest.to_alcotest latency_monotone_property;
          QCheck_alcotest.to_alcotest bigger_flits_higher_latency;
          QCheck_alcotest.to_alcotest longer_messages_higher_latency;
        ] );
      ( "variants",
        [
          Alcotest.test_case "network-total saturates earlier" `Quick
            variant_network_total_saturates_earlier;
          Alcotest.test_case "zero variance" `Quick variant_zero_variance_lowers_wait;
          Alcotest.test_case "lambda_i2 readings differ" `Quick
            variant_lambda_i2_size_scaled_differs;
        ] );
      ( "components",
        [
          Alcotest.test_case "intra zero load" `Quick intra_zero_load_closed_form;
          Alcotest.test_case "Eq. (7)" `Quick intra_lambda_eq7;
          Alcotest.test_case "inter pairs" `Quick inter_pairs_cover_all_destinations;
          Alcotest.test_case "Eqs. (35)/(38)/(39)" `Quick inter_eq35_eq38;
        ] );
      ( "utilization",
        [
          Alcotest.test_case "C/D is the bottleneck" `Quick utilization_bottleneck_is_cd;
          Alcotest.test_case "predicts saturation" `Quick utilization_predicts_saturation;
          Alcotest.test_case "linear in load" `Quick utilization_rho_linear_in_load;
          Alcotest.test_case "sorted" `Quick utilization_sorted_descending;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "uniform = Eq. (2)" `Quick pattern_uniform_matches_eq2;
          Alcotest.test_case "local U" `Quick pattern_local_u;
          Alcotest.test_case "uniform evaluate" `Quick pattern_uniform_evaluate_matches_latency;
          QCheck_alcotest.to_alcotest pattern_locality_lowers_latency;
        ] );
      ( "tail",
        [
          Alcotest.test_case "mixture preserves Eq. (3)" `Quick tail_mixture_preserves_mean;
          Alcotest.test_case "cdf monotone and bounded" `Quick tail_cdf_monotone_and_bounded;
          Alcotest.test_case "quantile inverts cdf" `Quick tail_quantile_inverts_cdf;
          Alcotest.test_case "quantile monotone in load" `Quick tail_quantile_monotone_in_load;
          Alcotest.test_case "M/M/1 exact" `Quick tail_component_is_exact_mm1;
          Alcotest.test_case "Eval.quantile" `Quick tail_eval_quantile_matches_direct;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "up to saturation" `Quick sweep_saturation_all_finite;
        ] );
    ]

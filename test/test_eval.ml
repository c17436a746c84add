(* The model kernel: bit-identity of its mean, its terms, its Tail fit
   and the Utilization table that reads them against the frozen
   pre-kernel model (reference_model.ml), warm-started saturation
   searches and their telemetry, and the domain pool. *)

module P = Fatnet_model.Params
module V = Fatnet_model.Variants
module Ref = Reference_model
module L = Ref.Latency
module Eval = Fatnet_model.Eval
module Pattern = Fatnet_model.Pattern
module Presets = Fatnet_model.Presets
module Solver = Fatnet_numerics.Solver
module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace
module Memo = Fatnet_numerics.Memo
module Pool = Eval.Pool

let message = Presets.message ~m_flits:32 ~d_m_bytes:256.

let small_system =
  P.homogeneous ~m:4 ~tree_depth:2 ~clusters:4 ~icn1:Presets.net1 ~ecn1:Presets.net2
    ~icn2:Presets.net1

let bits = Int64.bits_of_float

let check_bits what expected actual =
  Alcotest.(check int64) (Printf.sprintf "%s: %h = %h" what expected actual)
    (bits expected) (bits actual)

(* ---- bit-identity: mean_into vs the frozen Latency.mean ---- *)

let paper_orgs = [ ("org_544", Presets.org_544); ("org_1120", Presets.org_1120) ]

let golden_mean_bit_identity () =
  List.iter
    (fun (name, system) ->
      let ws = Eval.workspace ~system ~message () in
      let sat = L.saturation_rate ~system ~message () in
      (* A grid spanning light load through past saturation. *)
      List.iter
        (fun frac ->
          let lambda_g = frac *. sat in
          check_bits
            (Printf.sprintf "%s at %.2f x sat" name frac)
            (L.mean ~system ~message ~lambda_g ())
            (Eval.mean_into ws ~lambda_g))
        [ 0.; 0.05; 0.25; 0.5; 0.75; 0.9; 0.99; 1.01; 1.5 ])
    paper_orgs

let golden_variants_bit_identity () =
  let settings =
    [
      V.default;
      { V.default with V.lambda_i2 = V.Size_scaled };
      { V.default with V.source_variance = V.Zero };
      { V.default with V.source_rate = V.Network_total };
      { V.default with V.use_relaxing_factor = false };
    ]
  in
  List.iteri
    (fun k variants ->
      let ws = Eval.workspace ~variants ~system:Presets.org_544 ~message () in
      List.iter
        (fun lambda_g ->
          check_bits
            (Printf.sprintf "variant %d at %g" k lambda_g)
            (L.mean ~variants ~system:Presets.org_544 ~message ~lambda_g ())
            (Eval.mean_into ws ~lambda_g))
        [ 0.; 1e-5; 1e-4; 3e-4; 1e-3 ])
    settings

let golden_saturation_bit_identity () =
  List.iter
    (fun (name, system) ->
      let ws = Eval.workspace ~system ~message () in
      check_bits (name ^ " saturation")
        (L.saturation_rate ~system ~message ())
        (Eval.saturation_rate ws);
      (* The first stateful solve runs the same cold sequence. *)
      let state = Solver.bracket_state () in
      check_bits
        (name ^ " first warm-capable solve")
        (L.saturation_rate ~system ~message ())
        (Eval.saturation_rate ~state ws))
    paper_orgs

let single_cluster_bit_identity () =
  let system =
    P.homogeneous ~m:4 ~tree_depth:2 ~clusters:1 ~icn1:Presets.net1 ~ecn1:Presets.net2
      ~icn2:Presets.net1
  in
  let ws = Eval.workspace ~system ~message () in
  List.iter
    (fun lambda_g ->
      check_bits
        (Printf.sprintf "single cluster at %g" lambda_g)
        (L.mean ~system ~message ~lambda_g ())
        (Eval.mean_into ws ~lambda_g))
    [ 0.; 1e-4; 1e-3; 1e-2; 1. ]

let pattern_bit_identity () =
  let pattern = Pattern.Local { p_local = 0.7 } in
  let outgoing cluster =
    Pattern.outgoing_probability pattern ~system:small_system ~cluster
  in
  let ws = Eval.workspace ~outgoing ~system:small_system ~message () in
  List.iter
    (fun lambda_g ->
      check_bits
        (Printf.sprintf "local pattern at %g" lambda_g)
        (L.mean ~outgoing ~system:small_system ~message ~lambda_g ())
        (Eval.mean_into ws ~lambda_g))
    [ 0.; 1e-4; 1e-3; 5e-3 ]

(* ---- QCheck: random systems, messages, variants, rates ---- *)

let gen_network =
  QCheck.Gen.(
    let* bw = float_range 50. 1000. in
    let* a_n = float_range 0. 0.1 in
    let* a_s = float_range 0. 0.1 in
    return { P.bandwidth = bw; network_latency = a_n; switch_latency = a_s })

(* Clusters are drawn from a palette of one to three specs in random
   order, so bitwise-equal clusters repeat — contiguous or not — and
   the kernel's class deduplication is exercised away from the
   presets' sorted layout.  The specs mix two networks, so distinct
   specs often differ in one field only.  One case in eight is a
   single cluster. *)
let gen_system =
  QCheck.Gen.(
    let* m = oneofl [ 2; 4; 6; 8 ] in
    (* C = 2·(m/2)^n_c keeps the workspace small: n_c up to 3 while
       that keeps C <= 16 (m = 2 or 4, org_544's ICN2), else up to 2.
       Trees reach org_544's depth 5, so the longest stage walks —
       r + v + 2l - 1 = 15 stages — are drawn too. *)
    let* icn2_depth = if m <= 4 then oneofl [ 1; 2; 3 ] else oneofl [ 1; 2 ] in
    let* single = int_range 0 7 in
    let clusters = if single = 0 then 1 else P.cluster_size ~m ~tree_depth:icn2_depth in
    let* nets = array_repeat 2 gen_network in
    let* palette =
      array_size (int_range 1 3)
        (let* tree_depth = int_range 1 5 in
         let* icn1 = oneofa nets in
         let* ecn1 = oneofa nets in
         return { P.tree_depth; icn1; ecn1 })
    in
    let* picks = list_size (return clusters) (int_bound (Array.length palette - 1)) in
    let* icn2 = gen_network in
    return
      (P.make_system ~m ~icn2
         ~icn2_depth:(if clusters = 1 then 1 else icn2_depth)
         (List.map (fun k -> palette.(k)) picks)))

let gen_case =
  QCheck.Gen.(
    let* system = gen_system in
    let* m_flits = int_range 1 64 in
    let* flit_bytes = float_range 1. 512. in
    let* lambda_i2 = oneofl [ V.Pair_average; V.Size_scaled ] in
    let* source_variance = oneofl [ V.Draper_ghosh; V.Zero ] in
    let* source_rate = oneofl [ V.Per_node; V.Network_total ] in
    let* use_relaxing_factor = bool in
    let* lambda_scale = oneof [ return 0.; float_range 0. 1.5 ] in
    let message = { P.length_flits = m_flits; flit_bytes } in
    let variants = { V.lambda_i2; source_variance; source_rate; use_relaxing_factor } in
    return (system, message, variants, lambda_scale))

let arb_case = QCheck.make gen_case

let qcheck_mean_bit_identity =
  QCheck.Test.make ~name:"Eval.mean_into equals Latency.mean to the bit" ~count:150
    arb_case
    (fun (system, message, variants, lambda_scale) ->
      let ws = Eval.workspace ~variants ~system ~message () in
      (* Scale λ by the true saturation rate so the samples cover
         light load, heavy load and past-saturation alike. *)
      let sat = Eval.saturation_rate ws in
      let lambda_g = lambda_scale *. sat in
      let reference = L.mean ~variants ~system ~message ~lambda_g () in
      let mirror = Ref.Workspace.mean_into (Ref.Workspace.workspace ~variants ~system ~message ()) ~lambda_g in
      let fast = Eval.mean_into ws ~lambda_g in
      bits reference = bits fast && bits mirror = bits fast)

(* ---- bit-identity: the kernel's terms and the Tail fit ---- *)

let same_bits a b = bits a = bits b

(* Every field of the frozen per-cluster records against the terms the
   kernel left in the workspace, read through the cluster and pair
   classes. *)
let same_terms (r : L.t) ~mean (t : Eval.terms) =
  let same_cluster i (rc : L.cluster_result) =
    let a = t.Eval.cluster_class.(i) in
    let ri = rc.L.intra in
    let pcs = t.Eval.pair_class.(i) in
    let same_pair k (p : Ref.Inter.pair_breakdown) =
      let c = pcs.(k) in
      p.Ref.Inter.dest = (if k < i then k else k + 1)
      && same_bits p.Ref.Inter.lambda_ecn1 t.Eval.lambda_ecn1.(c)
      && same_bits p.Ref.Inter.lambda_icn2 t.Eval.lambda_icn2.(c)
      && same_bits p.Ref.Inter.eta_ecn1 t.Eval.eta_ecn1.(c)
      && same_bits p.Ref.Inter.eta_icn2 t.Eval.eta_icn2.(c)
      && same_bits p.Ref.Inter.network t.Eval.pair_network.(c)
      && same_bits p.Ref.Inter.waiting t.Eval.pair_waiting.(c)
      && same_bits p.Ref.Inter.tail t.Eval.pair_tail.(c)
      && same_bits p.Ref.Inter.cd_wait t.Eval.cd_wait.(c)
      && same_bits p.Ref.Inter.latency t.Eval.pair_latency.(c)
    in
    rc.L.cluster = i
    && same_bits rc.L.u t.Eval.u.(a)
    && same_bits ri.Ref.Intra.lambda_icn1 t.Eval.lambda_icn1.(a)
    && same_bits ri.Ref.Intra.eta_icn1 t.Eval.eta_icn1.(a)
    && same_bits ri.Ref.Intra.mean_distance t.Eval.mean_distance.(a)
    && same_bits ri.Ref.Intra.network t.Eval.intra_network.(a)
    && same_bits ri.Ref.Intra.waiting t.Eval.intra_waiting.(a)
    && same_bits ri.Ref.Intra.tail t.Eval.intra_tail.(a)
    && same_bits ri.Ref.Intra.total t.Eval.intra_total.(a)
    && (match rc.L.inter with
       | None -> Array.length pcs = 0
       | Some ex ->
           same_bits ex.Ref.Inter.l_ex t.Eval.l_ex.(i)
           && same_bits ex.Ref.Inter.w_d t.Eval.w_d.(i)
           && same_bits ex.Ref.Inter.total t.Eval.inter_total.(i)
           && List.length ex.Ref.Inter.pairs = Array.length pcs
           && List.for_all2 same_pair (List.init (Array.length pcs) Fun.id) ex.Ref.Inter.pairs)
    && same_bits rc.L.combined t.Eval.combined.(i)
  in
  same_bits r.L.mean_latency mean
  && List.length r.L.clusters = Array.length t.Eval.cluster_class
  && List.for_all2 same_cluster (List.init (List.length r.L.clusters) Fun.id) r.L.clusters

(* The live mixture expanded back to one record per component. *)
let same_tail (r : Ref.Tail.t) (t : Fatnet_model.Tail.t) =
  let module T = Fatnet_model.Tail in
  same_bits r.Ref.Tail.mean t.T.mean
  && List.length r.Ref.Tail.components = Array.length t.T.weight
  && List.for_all2
       (fun (c : Ref.Tail.component) i ->
         let k = t.T.cls.(i) in
         same_bits c.Ref.Tail.weight t.T.weight.(i)
         && same_bits c.Ref.Tail.floor t.T.floor.(k)
         && same_bits c.Ref.Tail.wait_mean t.T.wait_mean.(k)
         && same_bits c.Ref.Tail.sigma t.T.sigma.(k))
       r.Ref.Tail.components
       (List.init (Array.length t.T.weight) Fun.id)

(* The outgoing probability: Eq. (2), a [Pattern.Local] pattern, or
   a per-cluster draw from two values — the one way clusters of one
   spec can differ in U alone. *)
type outgoing = Eq2 | Local of float | Drawn of float array

let gen_breakdown_case =
  QCheck.Gen.(
    let* ((system, _, _, _) as case) = gen_case in
    let* q = float_range 1e-6 (1. -. 1e-6) in
    let* outgoing =
      oneof
        [
          return Eq2;
          map (fun p -> Local p) (float_range 0. 1.);
          (let* us = array_repeat 2 (float_range 0. 1.) in
           map (fun picks -> Drawn picks)
             (array_repeat (P.cluster_count system) (oneofa us)));
        ]
    in
    return (case, outgoing, q))

(* The quantiles checked per case: the ladder's, two low enough that
   F(least floor) >= q occurs (at light load the least floor's
   components alone carry more mass than that), and one uniform
   draw. *)
let qcheck_breakdown_bit_identity =
  QCheck.Test.make
    ~name:"Eval.terms, Eval.tail and Eval.quantile equal the frozen model to the bit"
    ~count:150 (QCheck.make gen_breakdown_case)
    (fun ((system, message, variants, lambda_scale), outgoing, q_drawn) ->
      let outgoing =
        match outgoing with
        | Eq2 -> None
        | Local p_local ->
            Some
              (fun cluster ->
                Pattern.outgoing_probability (Pattern.Local { p_local }) ~system ~cluster)
        | Drawn us -> Some (fun cluster -> us.(cluster))
      in
      let ws = Eval.workspace ~variants ?outgoing ~system ~message () in
      let lambda_g = lambda_scale *. Eval.saturation_rate ws in
      let r = L.evaluate ~variants ?outgoing ~system ~message ~lambda_g () in
      let rt = Ref.Tail.of_latency ~variants ~system ~message ~lambda_g r in
      same_terms r ~mean:(Eval.mean_into ws ~lambda_g) (Eval.terms ws)
      && same_tail rt (Eval.tail ws ~lambda_g)
      && List.for_all
           (fun q -> same_bits (Ref.Tail.quantile rt q) (Eval.quantile ws ~lambda_g ~q))
           [ 1e-3; 0.01; 0.5; 0.99; 0.999; q_drawn ])

(* The paper organizations' breakdowns and tails on a light-to-past-
   saturation grid: contiguous cluster types, the layout the wire
   workloads use. *)
let golden_breakdown_bit_identity () =
  List.iter
    (fun (name, system) ->
      let ws = Eval.workspace ~system ~message () in
      let sat = Eval.saturation_rate ws in
      List.iter
        (fun frac ->
          let lambda_g = frac *. sat in
          let r = L.evaluate ~system ~message ~lambda_g () in
          let what = Printf.sprintf "%s at %.2f x sat" name frac in
          Alcotest.(check bool) (what ^ ": Eval.terms") true
            (same_terms r ~mean:(Eval.mean_into ws ~lambda_g) (Eval.terms ws));
          Alcotest.(check bool) (what ^ ": Eval.tail") true
            (same_tail (Ref.Tail.of_latency ~system ~message ~lambda_g r) (Eval.tail ws ~lambda_g)))
        [ 0.; 0.25; 0.9; 1.2 ])
    paper_orgs

let qcheck_saturation_bit_identity =
  QCheck.Test.make ~name:"Eval.saturation_rate equals Latency.saturation_rate to the bit"
    ~count:40 arb_case
    (fun (system, message, variants, _) ->
      let ws = Eval.workspace ~variants ~system ~message () in
      bits (L.saturation_rate ~variants ~system ~message ())
      = bits (Eval.saturation_rate ws))

(* ---- bit-identity: the Utilization table ---- *)

(* The ρ table reads its rates from the kernel's terms; the frozen
   copy recomputes Eqs. 7, 10 and 22-25 itself.  Same resources in the
   same order, every ρ and saturation rate to the bit; λ = 0 must be
   rejected by both. *)
let qcheck_utilization_bit_identity =
  QCheck.Test.make ~name:"Utilization.analyze equals the frozen table to the bit" ~count:150
    arb_case
    (fun (system, message, variants, lambda_scale) ->
      let ws = Eval.workspace ~variants ~system ~message () in
      let lambda_g = lambda_scale *. Eval.saturation_rate ws in
      let table analyze =
        match analyze () with
        | entries -> Ok entries
        | exception Invalid_argument msg -> Error msg
      in
      match
        ( table (fun () -> Ref.Utilization.analyze ~variants ~system ~message ~lambda_g ()),
          table (fun () -> Fatnet_model.Utilization.analyze ~variants ~system ~message ~lambda_g ())
        )
      with
      | Ok frozen, Ok live ->
          List.length frozen = List.length live
          && List.for_all2
               (fun (f : Ref.Utilization.entry) (l : Ref.Utilization.entry) ->
                 f.resource = l.resource
                 && same_bits f.rho l.rho
                 && same_bits f.saturates_at l.saturates_at)
               frozen live
      | Error a, Error b -> a = b
      | _ -> false)

(* ---- the quantile inversion's edge cases ---- *)

module Tail = Fatnet_model.Tail

(* A hand-built mixture as the frozen model stores it: one record per
   component. *)
let reference_tail (t : Tail.t) =
  {
    Ref.Tail.mean = t.Tail.mean;
    components =
      Array.to_list
        (Array.mapi
           (fun i weight ->
             let c = t.Tail.cls.(i) in
             {
               Ref.Tail.weight;
               floor = t.Tail.floor.(c);
               wait_mean = t.Tail.wait_mean.(c);
               sigma = t.Tail.sigma.(c);
             })
           t.Tail.weight);
  }

let check_quantile what t q =
  let got = Tail.quantile t q in
  check_bits what (Ref.Tail.quantile (reference_tail t) q) got;
  got

(* Two classes; at the least floor [lo] the first one's CDF is
   already 1 - 0.2, so F(lo) = 0.9 · 0.8 >= 0.5. *)
let two_classes ~lo =
  {
    Tail.mean = 1.;
    weight = [| 0.9; 0.1 |];
    cls = [| 0; 1 |];
    floor = [| lo; 20. |];
    wait_mean = [| 5.; 5. |];
    sigma = [| 0.2; 0.5 |];
  }

(* The bisection closes in on [lo] itself.  Its last halving of
   (lo, succ lo) rounds the midpoint to whichever of the two has an
   even last mantissa bit, so the answer is [lo] when that bit is
   even and [succ lo] when it is odd. *)
let inversion_at_least_floor () =
  List.iter
    (fun (lo, expected) ->
      let t = two_classes ~lo in
      Alcotest.(check bool) (Printf.sprintf "F(%h) >= q" lo) true (Tail.cdf t lo >= 0.5);
      check_bits
        (Printf.sprintf "least floor %h (last bit %Ld)" lo (Int64.logand (bits lo) 1L))
        expected
        (check_quantile (Printf.sprintf "least floor %h vs the frozen bisection" lo) t 0.5))
    [ (10., 10.); (Float.succ 10., Float.succ (Float.succ 10.)) ]

(* Component order sums 0.1 + 0.2 + 0.3 + 0.4 with the classes
   alternating; class order sums (0.1 + 0.3) and (0.2 + 0.4) first.
   The two round differently, so at q = F(x) the class-aggregated sum
   cannot tell F >= q near x: only the exact component-order sum
   decides, and the answer must still be the frozen bisection's. *)
let inversion_q_at_computed_cdf () =
  let t =
    {
      Tail.mean = 1.;
      weight = [| 0.1; 0.2; 0.3; 0.4 |];
      cls = [| 0; 1; 0; 1 |];
      floor = [| 10.; 20. |];
      wait_mean = [| 5.; 5. |];
      sigma = [| 0.5; 0.5 |];
    }
  in
  List.iter
    (fun x -> ignore (check_quantile (Printf.sprintf "q = F(%g)" x) t (Tail.cdf t x)))
    [ 11.; 13.; 22.; 30.; 40. ]

(* A class with sigma = 0 never waits: its CDF steps from 0 to 1 at
   its floor, and F is flat at 0.3 between the floors, so q = 0.3 is
   met exactly on a whole interval. *)
let inversion_sigma_zero () =
  let t =
    {
      Tail.mean = 1.;
      weight = [| 0.3; 0.7 |];
      cls = [| 0; 1 |];
      floor = [| 12.; 30. |];
      wait_mean = [| 4.; 8. |];
      sigma = [| 0.; 0.6 |];
    }
  in
  List.iter
    (fun q -> ignore (check_quantile (Printf.sprintf "sigma = 0, q = %g" q) t q))
    [ 1e-3; 0.1; 0.3; 0.5; 0.99 ]

let inversion_non_finite () =
  let t = two_classes ~lo:10. in
  List.iter
    (fun (what, t) ->
      check_bits (what ^ " gives infinity") infinity (check_quantile what t 0.5))
    [
      ("infinite floor", { t with Tail.floor = [| 10.; infinity |] });
      ("NaN wait", { t with Tail.wait_mean = [| nan; 5. |] });
      ("infinite sigma", { t with Tail.sigma = [| 0.2; infinity |] });
    ]

(* ---- warm-started saturation searches ---- *)

let warm_matches_cold_and_records () =
  let reg = Metrics.create () in
  Metrics.with_ambient reg @@ fun () ->
  let ws = Eval.workspace ~system:Presets.org_544 ~message () in
  let cold = Eval.saturation_rate ws in
  let count name =
    match Metrics.Snapshot.find (Metrics.snapshot reg) name with
    | Some (Metrics.Snapshot.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "cold solve records no warm starts" 0 (count "solver_warm_starts");
  Alcotest.(check int) "cold solve records no bracket reuses" 0
    (count "solver_bracket_reuses");
  let state = Solver.bracket_state () in
  let first = Eval.saturation_rate ~state ws in
  check_bits "first stateful solve is the cold sequence" cold first;
  Alcotest.(check int) "still cold through a fresh state" 0 (count "solver_warm_starts");
  let iters_before = count "solver_boundary_iterations" in
  let warm = Eval.saturation_rate ~state ws in
  let iters_warm = count "solver_boundary_iterations" - iters_before in
  Alcotest.(check int) "second solve warm-started" 1 (count "solver_warm_starts");
  Alcotest.(check int) "previous bracket reused verbatim" 1 (count "solver_bracket_reuses");
  Alcotest.(check bool)
    (Printf.sprintf "warm agrees with cold (%h vs %h)" cold warm)
    true
    (Fatnet_numerics.Float_utils.approx_equal ~rel:1e-6 cold warm);
  Alcotest.(check bool)
    (Printf.sprintf "warm bisection is nearly free (%d iterations)" iters_warm)
    true (iters_warm <= 2)

let warm_tracks_moving_root () =
  let reg = Metrics.create () in
  Metrics.with_ambient reg @@ fun () ->
  let state = Solver.bracket_state () in
  (* A family of slightly perturbed systems: the root drifts, the
     bracket follows. *)
  let rates =
    List.map
      (fun i ->
        let system =
          Presets.with_icn2_bandwidth_scaled Presets.org_544
            ~factor:(1. +. (0.01 *. float_of_int i))
        in
        let ws = Eval.workspace ~system ~message () in
        Eval.saturation_rate ~state ws)
      [ 0; 1; 2; 3; 4 ]
  in
  List.iteri
    (fun i rate ->
      let system =
        Presets.with_icn2_bandwidth_scaled Presets.org_544
          ~factor:(1. +. (0.01 *. float_of_int i))
      in
      let cold = L.saturation_rate ~system ~message () in
      Alcotest.(check bool)
        (Printf.sprintf "perturbation %d: warm %.9g vs cold %.9g" i rate cold)
        true
        (Fatnet_numerics.Float_utils.approx_equal ~rel:1e-6 rate cold))
    rates;
  let count name =
    match Metrics.Snapshot.find (Metrics.snapshot reg) name with
    | Some (Metrics.Snapshot.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "four of five solves warm" 4 (count "solver_warm_starts")

let warm_counters_in_all_formats () =
  let reg = Metrics.create () in
  Metrics.with_ambient reg (fun () ->
      let ws = Eval.workspace ~system:small_system ~message () in
      let state = Solver.bracket_state () in
      ignore (Eval.saturation_rate ~state ws);
      ignore (Eval.saturation_rate ~state ws));
  let snap = Metrics.snapshot reg in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in json") true
        (contains (Metrics.Snapshot.to_json snap) name);
      Alcotest.(check bool) (name ^ " in prometheus") true
        (contains (Metrics.Snapshot.to_prometheus snap) name);
      Alcotest.(check bool) (name ^ " in table") true
        (contains (Fatnet_report.Metrics_report.render snap) name))
    [ "solver_warm_starts"; "solver_bracket_reuses" ]

let warm_repeat_reuses_bracket () =
  (* The design-search revisit pattern: a repeated system's root still
     sits inside the stored tol-tight bracket, so the repeat solve
     reuses it verbatim; a drifted system's root escapes it and the
     solver marches instead.  This is the genuine-reuse counterpart of
     [warm_tracks_moving_root] (which shows a strictly monotone family
     correctly reports zero reuses). *)
  let reg = Metrics.create () in
  Metrics.with_ambient reg @@ fun () ->
  let state = Solver.bracket_state () in
  List.iter
    (fun i ->
      let system =
        Presets.with_icn2_bandwidth_scaled Presets.org_544
          ~factor:(1. +. (0.01 *. float_of_int i))
      in
      let ws = Eval.workspace ~system ~message () in
      ignore (Eval.saturation_rate ~state ws);
      ignore (Eval.saturation_rate ~state ws))
    [ 0; 1 ];
  let count name =
    match Metrics.Snapshot.find (Metrics.snapshot reg) name with
    | Some (Metrics.Snapshot.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "three of four solves warm" 3 (count "solver_warm_starts");
  Alcotest.(check int) "each repeat reuses the stored bracket" 2
    (count "solver_bracket_reuses")

(* ---- multicore pool ---- *)

let pool_map_basics () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "domains" 3 (Pool.domains pool);
      let inputs = Array.init 20 Fun.id in
      let out = Pool.map pool ~f:(fun ctx x -> (x * x) + (0 * Pool.ctx_id ctx)) inputs in
      Alcotest.(check (array int)) "results at input indices"
        (Array.map (fun x -> x * x) inputs)
        out)

let pool_exceptions_propagate () =
  Pool.with_pool ~domains:2 (fun pool ->
      (match
         Pool.map pool
           ~f:(fun _ x -> if x = 5 then failwith "boom" else x)
           (Array.init 10 Fun.id)
       with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> Alcotest.(check string) "payload" "boom" msg);
      (* The pool survives a failed batch. *)
      let out = Pool.map pool ~f:(fun _ x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "usable after failure" [| 2; 3; 4 |] out)

let pool_shutdown_semantics () =
  let pool = Pool.create ~domains:2 () in
  let out = Pool.map pool ~f:(fun _ x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "map works" [| 2; 3; 4 |] out;
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  match Pool.map pool ~f:(fun _ x -> x) [| 1 |] with
  | _ -> Alcotest.fail "expected Invalid_argument after shutdown"
  | exception Invalid_argument _ -> ()

let pool_map_traces_workers () =
  (* The caller holds the first task it claims until a worker has run
     the other, so a worker records a span whatever the claim order;
     the span must reach the caller's ambient trace. *)
  let tracer = Trace.create () in
  let worker_ran = Atomic.make false in
  let task ctx _ =
    Trace.in_span (Trace.ambient ()) "task" (fun _ -> ());
    if Pool.ctx_id ctx > 0 then Atomic.set worker_ran true
    else begin
      let t0 = Unix.gettimeofday () in
      while (not (Atomic.get worker_ran)) && Unix.gettimeofday () -. t0 < 10. do
        Domain.cpu_relax ()
      done
    end
  in
  let busy =
    Trace.with_ambient tracer (fun () ->
        Pool.with_pool ~domains:2 (fun pool ->
            ignore (Pool.map pool ~f:task [| 0; 1 |]);
            Pool.busy_seconds pool))
  in
  Alcotest.(check bool) "a worker ran a task" true (Atomic.get worker_ran);
  let caller = (Domain.self () :> int) in
  let tasks = List.filter (fun (r : Trace.span_record) -> r.name = "task") (Trace.spans tracer) in
  Alcotest.(check int) "both tasks traced" 2 (List.length tasks);
  Alcotest.(check bool) "one span recorded on a worker domain" true
    (List.exists (fun (r : Trace.span_record) -> r.track <> caller) tasks);
  Alcotest.(check int) "busy seconds per domain" 2 (Array.length busy);
  Alcotest.(check bool) "both domains were busy" true (Array.for_all (fun b -> b > 0.) busy)

let pool_nested_map_raises () =
  Pool.with_pool ~domains:2 (fun pool ->
      match
        Pool.map pool
          ~f:(fun _ _ -> ignore (Pool.map pool ~f:(fun _ x -> x) [| 1 |]))
          [| 0 |]
      with
      | _ -> Alcotest.fail "expected Invalid_argument from nested map"
      | exception Invalid_argument _ -> ())

(* What bench/parallel.ml runs on the pool: each domain evaluates on
   its cached workspace, behind the memo when one is given. *)
let pool_means pool ?memo ?variants ~system ~message lambdas =
  Pool.map pool lambdas ~f:(fun ctx lambda_g ->
      let eval () =
        Eval.mean_into (Pool.ctx_workspace ctx ?variants ~system ~message ()) ~lambda_g
      in
      match memo with
      | None -> eval ()
      | Some memo -> Memo.find_or_compute memo ~key:"case" ~bits:(bits lambda_g) eval)

let pool_means_match_sequential () =
  List.iter
    (fun (name, system) ->
      let ws = Eval.workspace ~system ~message () in
      let sat = Eval.saturation_rate ws in
      (* Shuffled order, light load, near-saturation, and diverged
         points alike. *)
      let lambdas =
        Array.of_list
          (List.map (fun f -> f *. sat) [ 0.9; 0.1; 1.2; 0.5; 0.; 0.99; 1.01; 0.7 ])
      in
      let expected = Array.map (fun lambda_g -> Eval.mean_into ws ~lambda_g) lambdas in
      List.iter
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let got = pool_means pool ~system ~message lambdas in
              Array.iteri
                (fun i v ->
                  check_bits
                    (Printf.sprintf "%s, %d domains, point %d" name domains i)
                    expected.(i) v)
                got))
        [ 1; 2; 4 ])
    paper_orgs

(* The daemon's saturation path: each domain searches on its cached
   workspace, cold or warm from its own bracket. *)
let pool_saturation_rates () =
  let family =
    Array.init 5 (fun i ->
        Presets.with_icn2_bandwidth_scaled small_system
          ~factor:(1. +. (0.01 *. float_of_int i)))
  in
  let expected = Array.map (fun system -> L.saturation_rate ~system ~message ()) family in
  Pool.with_pool ~domains:2 (fun pool ->
      let search ~warm =
        Pool.map pool family ~f:(fun ctx system ->
            let ws = Pool.ctx_workspace ctx ~system ~message () in
            if warm then Eval.saturation_rate ~state:(Pool.ctx_bracket ctx) ws
            else Eval.saturation_rate ws)
      in
      Array.iteri
        (fun i v -> check_bits (Printf.sprintf "cold search %d" i) expected.(i) v)
        (search ~warm:false);
      Array.iteri
        (fun i v ->
          Alcotest.(check bool)
            (Printf.sprintf "warm search %d: %.9g vs %.9g" i expected.(i) v)
            true
            (Fatnet_numerics.Float_utils.approx_equal ~rel:1e-6 expected.(i) v))
        (search ~warm:true))

let pool_memo_counters_in_all_formats () =
  let reg = Metrics.create () in
  Metrics.with_ambient reg (fun () ->
      let memo = Memo.create ~metric:"model_memo" () in
      Pool.with_pool ~domains:2 (fun pool ->
          let lambdas = [| 1e-4; 2e-4; 3e-4 |] in
          ignore (pool_means pool ~memo ~system:small_system ~message lambdas);
          ignore (pool_means pool ~memo ~system:small_system ~message lambdas)));
  let snap = Metrics.snapshot reg in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in json") true
        (contains (Metrics.Snapshot.to_json snap) name);
      Alcotest.(check bool) (name ^ " in prometheus") true
        (contains (Metrics.Snapshot.to_prometheus snap) name);
      Alcotest.(check bool) (name ^ " in table") true
        (contains (Fatnet_report.Metrics_report.render snap) name))
    [ "model_memo_hits"; "model_memo_misses"; "pool_domain_occupancy" ]

(* Satellite 3: the parallel engine is bit-identical to the
   sequential loop for any domain count and any λ order, memo on or
   off, hit or miss — random heterogeneous systems included. *)
let gen_pool_case =
  QCheck.Gen.(
    let* system, message, variants, _ = gen_case in
    let* scales = list_size (int_range 1 24) (float_range 0. 2.) in
    return (system, message, variants, scales))

let qcheck_pool_bit_identity =
  QCheck.Test.make
    ~name:"Pool.map on ctx_workspace equals the sequential loop to the bit (domains 1/2/4/8)"
    ~count:15 (QCheck.make gen_pool_case)
    (fun (system, message, variants, scales) ->
      let ws = Eval.workspace ~variants ~system ~message () in
      let sat = Eval.saturation_rate ws in
      let lambdas = Array.of_list (List.map (fun s -> s *. sat) scales) in
      let expected = Array.map (fun lambda_g -> Eval.mean_into ws ~lambda_g) lambdas in
      let same got =
        Array.length got = Array.length expected
        && Array.for_all2 (fun a b -> bits a = bits b) expected got
      in
      List.for_all
        (fun domains ->
          Pool.with_pool ~domains (fun pool ->
              let plain = pool_means pool ~variants ~system ~message lambdas in
              let memo = Memo.create () in
              let cold = pool_means pool ~memo ~variants ~system ~message lambdas in
              let warm = pool_means pool ~memo ~variants ~system ~message lambdas in
              same plain && same cold && same warm))
        [ 1; 2; 4; 8 ])

(* ---- allocation discipline ---- *)

let mean_into_is_allocation_free () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()  (* bytecode boxes everything *)
  | Sys.Native ->
      let ws = Eval.workspace ~system:Presets.org_544 ~message () in
      (* Warm up: fault in any lazy state. *)
      ignore (Eval.mean_into ws ~lambda_g:1e-4);
      let n = 1000 in
      let before = Gc.allocated_bytes () in
      for _ = 1 to n do
        ignore (Eval.mean_into ws ~lambda_g:1e-4)
      done;
      let per_eval = (Gc.allocated_bytes () -. before) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "bytes per eval %.1f <= 64" per_eval)
        true (per_eval <= 64.)

(* ---- a λ axis on one workspace ---- *)

(* The access pattern of fatnet model --sweep and the sweep tables:
   one workspace evaluated along a λ axis, here out of order.  Each
   point is the frozen model's value at that rate, so no state leaks
   from one evaluation into the next, and points past saturation are
   infinite. *)
let batch_matches_pointwise () =
  let ws = Eval.workspace ~system:small_system ~message () in
  let sat = Eval.saturation_rate ws in
  List.iter
    (fun i ->
      let lambda_g = 0.3 *. sat *. float_of_int i in
      let latency = Eval.mean_into ws ~lambda_g in
      if lambda_g < sat then
        check_bits
          (Printf.sprintf "point %d" i)
          (L.mean ~system:small_system ~message ~lambda_g ())
          latency
      else
        Alcotest.(check bool) "saturated point is infinite" true (not (Float.is_finite latency)))
    [ 4; 0; 8; 2; 6; 1; 7; 3; 5 ]

let () =
  Alcotest.run "eval"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "paper organizations" `Quick golden_mean_bit_identity;
          Alcotest.test_case "all variant settings" `Quick golden_variants_bit_identity;
          Alcotest.test_case "saturation rates" `Quick golden_saturation_bit_identity;
          Alcotest.test_case "single cluster" `Quick single_cluster_bit_identity;
          Alcotest.test_case "local traffic pattern" `Quick pattern_bit_identity;
          QCheck_alcotest.to_alcotest qcheck_mean_bit_identity;
          Alcotest.test_case "paper organizations: breakdown and tail" `Quick
            golden_breakdown_bit_identity;
          QCheck_alcotest.to_alcotest qcheck_breakdown_bit_identity;
          QCheck_alcotest.to_alcotest qcheck_saturation_bit_identity;
          QCheck_alcotest.to_alcotest qcheck_utilization_bit_identity;
        ] );
      ( "inversion",
        [
          Alcotest.test_case "F(least floor) >= q, even and odd floor" `Quick
            inversion_at_least_floor;
          Alcotest.test_case "q = F(x): only the exact sum decides" `Quick
            inversion_q_at_computed_cdf;
          Alcotest.test_case "sigma = 0 class" `Quick inversion_sigma_zero;
          Alcotest.test_case "non-finite class gives infinity" `Quick inversion_non_finite;
        ] );
      ( "warm start",
        [
          Alcotest.test_case "warm matches cold, counters recorded" `Quick
            warm_matches_cold_and_records;
          Alcotest.test_case "bracket follows a drifting root" `Quick
            warm_tracks_moving_root;
          Alcotest.test_case "revisited system reuses its bracket" `Quick
            warm_repeat_reuses_bracket;
          Alcotest.test_case "counters in all three formats" `Quick
            warm_counters_in_all_formats;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map basics" `Quick pool_map_basics;
          Alcotest.test_case "exceptions propagate" `Quick pool_exceptions_propagate;
          Alcotest.test_case "shutdown semantics" `Quick pool_shutdown_semantics;
          Alcotest.test_case "nested map raises" `Quick pool_nested_map_raises;
          Alcotest.test_case "map traces workers" `Quick pool_map_traces_workers;
          Alcotest.test_case "means match sequential" `Quick pool_means_match_sequential;
          Alcotest.test_case "saturation rates" `Quick pool_saturation_rates;
          Alcotest.test_case "memo and occupancy in all formats" `Quick
            pool_memo_counters_in_all_formats;
          QCheck_alcotest.to_alcotest qcheck_pool_bit_identity;
        ] );
      ( "allocation",
        [ Alcotest.test_case "mean_into allocation-free" `Quick mean_into_is_allocation_free ] );
      ( "batch",
        [
          Alcotest.test_case "batch matches pointwise" `Quick batch_matches_pointwise;
        ] );
    ]

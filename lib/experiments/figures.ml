module Params = Fatnet_model.Params
module Presets = Fatnet_model.Presets
module Scenario = Fatnet_scenario.Scenario
module Runner = Fatnet_sim.Runner
module Series = Fatnet_report.Series
module Summary = Fatnet_stats.Summary

type curve = { label : string; scenario : Scenario.t; simulate : bool }
type spec = { id : string; title : string; lambda_max : float; curves : curve list }

let default_steps = 6

(* Figs. 3-6 are all one shape — a base scenario fanned out over the
   paper's two flit sizes — so the in-code presets and the checked-in
   [examples/*.scn] files go through the same constructor and are
   definitionally equal (pinned by the integration tests). *)
let of_scenario (base : Scenario.t) =
  let lambda_max =
    match base.Scenario.load with
    | Scenario.Linear { lambda_max; _ } -> lambda_max
    | Scenario.Fixed l -> l
  in
  let curve d_m =
    {
      label = Printf.sprintf "Lm=%.0f" d_m;
      scenario =
        {
          base with
          Scenario.message = { base.Scenario.message with Params.flit_bytes = d_m };
        };
      simulate = true;
    }
  in
  {
    id = base.Scenario.name;
    title = base.Scenario.title;
    lambda_max;
    curves = [ curve 256.; curve 512. ];
  }

let to_scenario spec =
  match spec.curves with
  | [ a; b ]
    when a.simulate && b.simulate
         && a.scenario.Scenario.message.Params.flit_bytes = 256.
         && b.scenario.Scenario.message.Params.flit_bytes = 512.
         && b.scenario
            = { a.scenario with Scenario.message = b.scenario.Scenario.message }
         && b.scenario.Scenario.message.Params.length_flits
            = a.scenario.Scenario.message.Params.length_flits
         && a.scenario.Scenario.name = spec.id
         && a.scenario.Scenario.title = spec.title ->
      Some a.scenario
  | _ -> None

let validation ~id ~title ~system ~m_flits ~lambda_max =
  of_scenario
    (Scenario.make ~name:id ~title ~system
       ~message:(Presets.message ~m_flits ~d_m_bytes:256.)
       ~load:(Scenario.Linear { lambda_max; steps = default_steps })
       ())

let fig3 =
  validation ~id:"fig3" ~title:"N=1120, m=8, M=32" ~system:Presets.org_1120 ~m_flits:32
    ~lambda_max:5e-4

let fig4 =
  validation ~id:"fig4" ~title:"N=1120, m=8, M=64" ~system:Presets.org_1120 ~m_flits:64
    ~lambda_max:2.5e-4

let fig5 =
  validation ~id:"fig5" ~title:"N=544, m=4, M=32" ~system:Presets.org_544 ~m_flits:32
    ~lambda_max:1e-3

let fig6 =
  validation ~id:"fig6" ~title:"N=544, m=4, M=64" ~system:Presets.org_544 ~m_flits:64
    ~lambda_max:5e-4

(* Fig. 7: model-only ICN2 bandwidth study, M=128, d_m=256. *)
let fig7 =
  let title = "ICN2 bandwidth +20%, M=128, Lm=256" in
  let message = Presets.message ~m_flits:128 ~d_m_bytes:256. in
  let lambda_max = 3e-4 in
  let curve label system =
    {
      label;
      scenario =
        Scenario.make ~name:"fig7" ~title ~system ~message
          ~load:(Scenario.Linear { lambda_max; steps = default_steps })
          ();
      simulate = false;
    }
  in
  {
    id = "fig7";
    title;
    lambda_max;
    curves =
      [
        curve "N=544, Base" Presets.org_544;
        curve "N=544, Increased" (Presets.with_icn2_bandwidth_scaled Presets.org_544 ~factor:1.2);
        curve "N=1120, Base" Presets.org_1120;
        curve "N=1120, Increased"
          (Presets.with_icn2_bandwidth_scaled Presets.org_1120 ~factor:1.2);
      ];
  }

let all = [ fig3; fig4; fig5; fig6; fig7 ]

let find id = List.find_opt (fun s -> s.id = id) all

let lambda_points spec steps =
  List.init steps (fun i ->
      spec.lambda_max *. float_of_int (i + 1) /. float_of_int steps)

let model_series ?variants spec ~steps =
  List.map
    (fun c ->
      let s =
        match variants with
        | Some v -> { c.scenario with Scenario.variants = v }
        | None -> c.scenario
      in
      (* One workspace per curve: the λ-invariant model terms are
         computed once and each grid point is one allocation-free
         [Eval.mean_into]. *)
      let ws = Scenario.evaluator s in
      let points =
        List.map
          (fun lambda_g -> (lambda_g, Fatnet_model.Eval.mean_into ws ~lambda_g))
          (lambda_points spec steps)
      in
      (* Saturated points are kept (y = infinity): consumers decide
         whether to render them as "sat." or drop them. *)
      Series.create ~name:("model " ^ c.label) ~points)
    spec.curves

let default_engine =
  { Sweep_engine.default_config with cache = Sweep_engine.No_cache }

(* The whole figure goes through the orchestrator as one batch —
   every (curve, λ) point — so the scheduler can balance the cheap
   light-load points of one curve against the expensive
   near-saturation points of another. *)
let sim_summaries_stats ?(engine = default_engine) spec ~steps =
  let curves = List.filter (fun c -> c.simulate) spec.curves in
  let lambdas = lambda_points spec steps in
  let points =
    List.concat_map (fun c -> List.map (Scenario.at c.scenario) lambdas) curves
  in
  let outcome = Sweep_engine.run ~config:engine points in
  (* Figures are dense grids: a hole would silently distort a curve,
     so quarantined points are an error here. *)
  let results = Sweep_engine.results_exn outcome in
  let stats = outcome.Sweep_engine.stats in
  let per_curve =
    List.mapi
      (fun k c ->
        ( c.label,
          List.mapi
            (fun j lambda_g ->
              (lambda_g, results.((k * steps) + j).Sweep_engine.summary))
            lambdas ))
      curves
  in
  (per_curve, stats)

let mean_series_of_summaries per_curve =
  List.map
    (fun (label, pts) ->
      Series.create ~name:("sim " ^ label)
        ~points:(List.map (fun (l, s) -> (l, s.Summary.mean)) pts))
    per_curve

(* The ladder names match the simulator's P² estimators; anything off
   the ladder would raise in [Summary.quantile] anyway. *)
let quantile_name q =
  if q = 0.5 then "p50"
  else if q = 0.9 then "p90"
  else if q = 0.99 then "p99"
  else if q = 0.999 then "p999"
  else Printf.sprintf "p%g" (100. *. q)

let quantile_id spec ~q = spec.id ^ "-" ^ quantile_name q

let quantile_series_of_summaries ~q per_curve =
  List.map
    (fun (label, pts) ->
      Series.create
        ~name:(Printf.sprintf "sim %s %s" (quantile_name q) label)
        ~points:(List.map (fun (l, s) -> (l, Summary.quantile s q)) pts))
    per_curve

(* The model side of the tail family: one {!Fatnet_model.Tail} fit
   per (curve, λ), quantile read off the fitted mixture.  Mirrors
   [model_series]'s shape so the two overlay in one CSV. *)
let model_quantile_series ?variants spec ~steps ~q =
  List.map
    (fun c ->
      let s =
        match variants with
        | Some v -> { c.scenario with Scenario.variants = v }
        | None -> c.scenario
      in
      let ws = Scenario.evaluator s in
      let points =
        List.map
          (fun lambda_g -> (lambda_g, Fatnet_model.Eval.quantile ws ~lambda_g ~q))
          (lambda_points spec steps)
      in
      Series.create
        ~name:(Printf.sprintf "model %s %s" (quantile_name q) c.label)
        ~points)
    spec.curves

let light_load_error spec =
  spec.curves
  |> List.filter (fun c -> c.simulate)
  |> List.map (fun c ->
         let s = c.scenario in
         (* "Light traffic" is relative to each curve's own
            saturation point, not the figure's x range (the Lm=512
            curves saturate halfway across the axis). *)
         let saturation = Scenario.saturation_rate s in
         let ws = Scenario.evaluator s in
         let err frac =
           let lambda_g = frac *. saturation in
           let model = Fatnet_model.Eval.mean_into ws ~lambda_g in
           let sim = (Runner.run_scenario ~lambda_g s).Runner.latency.Summary.mean in
           Fatnet_numerics.Float_utils.relative_error ~expected:sim ~actual:model
         in
         (c.label, (err 0.1 +. err 0.25) /. 2.))

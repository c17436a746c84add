module Eval = Fatnet_model.Eval
module Presets = Fatnet_model.Presets
module Variants = Fatnet_model.Variants
module Scenario = Fatnet_scenario.Scenario
module Table = Fatnet_report.Table

type run =
  | Model of (unit -> Table.t)
  | Simulated of (steps:int -> protocol:Scenario.protocol -> Table.t)

type t = { id : string; description : string; run : run }

let message = Presets.message ~m_flits:32 ~d_m_bytes:256.

let organizations = [ ("N=1120", Presets.org_1120); ("N=544", Presets.org_544) ]

(* Compare model variants on saturation rate and latency at fixed
   fractions of the *default* variant's saturation point.  Each
   (organization, setting) gets one [Eval] workspace; the per-setting
   saturation searches within an organization warm-start from each
   other's brackets (the variants shift the root only slightly), while
   the baseline saturation comes from the stateless, cold search. *)
let variant_table settings =
  let table =
    Table.create ~columns:[ "organization"; "setting"; "saturation λ_g"; "λ@25%"; "λ@50%"; "λ@75%" ]
  in
  List.iter
    (fun (org_name, system) ->
      let base_ws = Eval.workspace ~system ~message () in
      let base_sat = Eval.saturation_rate base_ws in
      let state = Fatnet_numerics.Solver.bracket_state () in
      List.iter
        (fun (setting_name, variants) ->
          let ws = Eval.workspace ~variants ~system ~message () in
          let sat = Eval.saturation_rate ~state ws in
          let at frac = Eval.mean_into ws ~lambda_g:(frac *. base_sat) in
          Table.add_row table
            ([ org_name; setting_name ]
            @ List.map
                (fun x ->
                  if Float.is_finite x then Printf.sprintf "%.6g" x else "sat.")
                [ sat; at 0.25; at 0.5; at 0.75 ]))
        settings)
    organizations;
  table

let lambda_i2 =
  {
    id = "lambda-i2";
    description = "Eq. (23) reading: pair-average vs size-scaled λ_I2";
    run =
      Model
        (fun () ->
          variant_table
            [
              ("pair-average", Variants.default);
              ("size-scaled", { Variants.default with lambda_i2 = Variants.Size_scaled });
            ]);
  }

let relaxing_factor =
  {
    id = "relaxing-factor";
    description = "Eq. (28) relaxing factor δ applied vs ignored";
    run =
      Model
        (fun () ->
          variant_table
            [
              ("δ applied", Variants.default);
              ("δ ignored", { Variants.default with use_relaxing_factor = false });
            ]);
  }

let source_variance =
  {
    id = "source-variance";
    description = "Eq. (17) Draper–Ghosh source-queue variance vs M/D/1";
    run =
      Model
        (fun () ->
          variant_table
            [
              ("draper-ghosh", Variants.default);
              ("zero (M/D/1)", { Variants.default with source_variance = Variants.Zero });
            ]);
  }

let source_rate =
  {
    id = "source-rate";
    description = "Eqs. (18)/(31) per-node vs literal network-total source-queue rate";
    run =
      Model
        (fun () ->
          variant_table
            [
              ("per-node", Variants.default);
              ("network-total", { Variants.default with source_rate = Variants.Network_total });
            ]);
  }

(* Simulator ablation: cut-through vs store-and-forward C/Ds against
   the model on a small heterogeneous system that keeps the run
   cheap. *)
let cd_system =
  Fatnet_model.Params.make_system ~m:4 ~icn2:Presets.net1
    (List.concat
       [
         List.init 2 (fun _ ->
             { Fatnet_model.Params.tree_depth = 1; icn1 = Presets.net1; ecn1 = Presets.net2 });
         List.init 2 (fun _ ->
             { Fatnet_model.Params.tree_depth = 2; icn1 = Presets.net1; ecn1 = Presets.net2 });
       ])

(* Simulation columns go through the sweep engine (uncached — the
   ablation grid is derived from a saturation search and rarely
   recurs), which balances the near-saturation rows across domains. *)
let cd_mode =
  {
    id = "cd-mode";
    description = "simulator C/D hand-off: cut-through vs store-and-forward vs model";
    run =
      Simulated
        (fun ~steps ~protocol ->
          let table =
            Table.create ~columns:[ "λ_g"; "model"; "sim cut-through"; "sim store-and-forward" ]
          in
          let ws = Eval.workspace ~system:cd_system ~message () in
          let sat = Eval.saturation_rate ws in
          let lambdas =
            List.init steps (fun i -> 0.8 *. sat *. float_of_int (i + 1) /. float_of_int steps)
          in
          let sim cd_mode =
            Sweep_engine.mean_latencies
              ~config:{ Sweep_engine.default_config with cache = Sweep_engine.No_cache }
              (List.map
                 (fun lambda_g ->
                   Scenario.make ~name:"ablation" ~system:cd_system ~message
                     ~protocol:{ protocol with Scenario.cd_mode }
                     ~load:(Scenario.Fixed lambda_g) ())
                 lambdas)
          in
          let ct = sim Scenario.Cut_through in
          let sf = sim Scenario.Store_and_forward in
          List.iteri
            (fun i lambda_g ->
              let model = Eval.mean_into ws ~lambda_g in
              Table.add_float_row table [ lambda_g; model; List.nth ct i; List.nth sf i ])
            lambdas;
          table);
  }

let all = [ lambda_i2; relaxing_factor; source_variance; source_rate; cd_mode ]

let find id = List.find_opt (fun a -> a.id = id) all

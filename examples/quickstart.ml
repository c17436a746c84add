(* Quickstart: describe a heterogeneous cluster-of-clusters system,
   predict its mean message latency with the analytical model, and
   check the prediction against the discrete-event simulator.

   Run with: dune exec examples/quickstart.exe *)

module Params = Fatnet_model.Params
module Presets = Fatnet_model.Presets
module Eval = Fatnet_model.Eval
module Runner = Fatnet_sim.Runner
module Scenario = Fatnet_scenario.Scenario

let () =
  (* A system of four clusters sharing 4-port switches: two small
     clusters (4 nodes each) and two larger ones (8 nodes each).
     Every cluster uses the paper's Net.1 for its internal fabric and
     the slower Net.2 for its egress network; the global ICN2 runs
     Net.1. *)
  let cluster depth = { Params.tree_depth = depth; icn1 = Presets.net1; ecn1 = Presets.net2 } in
  let system =
    Params.make_system ~m:4 ~icn2:Presets.net1 [ cluster 1; cluster 1; cluster 2; cluster 2 ]
  in
  Format.printf "system: @[%a@]@.@." Params.pp_system system;

  (* Messages of 32 flits, 256 bytes per flit. *)
  let message = Presets.message ~m_flits:32 ~d_m_bytes:256. in

  (* One model workspace answers every question below. *)
  let ws = Eval.workspace ~system ~message () in

  (* Where does the model say the network saturates? *)
  let saturation = Eval.saturation_rate ws in
  Printf.printf "predicted saturation: λ_g = %.4g messages/node/time-unit\n\n" saturation;

  (* Predict and simulate at a few fractions of that rate. *)
  let table =
    Fatnet_report.Table.create
      ~columns:[ "load (% of sat)"; "λ_g"; "model"; "simulation"; "error %" ]
  in
  List.iter
    (fun percent ->
      let lambda_g = float_of_int percent /. 100. *. saturation in
      let model = Eval.mean_into ws ~lambda_g in
      (* The simulator's input is a scenario: the system and message
         above, uniform traffic, the scaled-down Section-4 protocol
         and this operating point. *)
      let point =
        Scenario.make ~system ~message ~protocol:Scenario.quick_protocol
          ~load:(Scenario.Fixed lambda_g) ()
      in
      let sim = (Runner.run_scenario point).Runner.latency.Fatnet_stats.Summary.mean in
      Fatnet_report.Table.add_row table
        [
          string_of_int percent;
          Printf.sprintf "%.4g" lambda_g;
          Printf.sprintf "%.4g" model;
          Printf.sprintf "%.4g" sim;
          Printf.sprintf "%+.1f" (100. *. (model -. sim) /. sim);
        ])
    [ 10; 30; 50; 70 ];
  Fatnet_report.Table.print table;

  (* The per-cluster breakdown shows the heterogeneity: small
     clusters send almost everything through the egress networks.
     Each evaluation leaves its terms in the workspace, per cluster
     class ([u]) and per cluster ([combined]). *)
  print_newline ();
  let mean = Eval.mean_into ws ~lambda_g:(0.3 *. saturation) in
  let t = Eval.terms ws in
  Array.iteri
    (fun i a ->
      Printf.printf
        "cluster %d: %d nodes, U=%.3f (fraction of traffic leaving), latency %.4g\n"
        i (Params.cluster_nodes system i) t.Eval.u.(a) t.Eval.combined.(i))
    t.Eval.cluster_class;
  Printf.printf "\nweighted mean latency: %.4g\n" mean

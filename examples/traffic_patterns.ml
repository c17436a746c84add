(* Traffic patterns: the paper's future work, explored with the
   simulator.

   The analytical model assumes uniform destinations (Assumption 2).
   The paper's conclusion promises non-uniform traffic as future
   work; the simulator already supports two such patterns —
   cluster-local traffic and a hotspot — so we can quantify how far
   the uniform-traffic model drifts as the pattern skews.

   Run with: dune exec examples/traffic_patterns.exe *)

module Presets = Fatnet_model.Presets
module Eval = Fatnet_model.Eval
module Pattern = Fatnet_model.Pattern
module Runner = Fatnet_sim.Runner
module Scenario = Fatnet_scenario.Scenario
module D = Fatnet_workload.Destination

let system =
  Fatnet_model.Params.homogeneous ~m:4 ~tree_depth:2 ~clusters:4 ~icn1:Presets.net1
    ~ecn1:Presets.net2 ~icn2:Presets.net1

let message = Presets.message ~m_flits:32 ~d_m_bytes:256.

let protocol = { Scenario.quick_protocol with warmup = 500; measured = 8000; drain = 500 }

let () =
  let ws = Eval.workspace ~system ~message () in
  let saturation = Eval.saturation_rate ws in
  let lambda_g = 0.4 *. saturation in
  let model = Eval.mean_into ws ~lambda_g in
  Printf.printf
    "16-node clusters x 4, λ_g = %.4g (40%% of predicted saturation)\n\
     uniform-traffic model prediction: %.4g\n\n"
    lambda_g model;
  let table =
    Fatnet_report.Table.create
      ~columns:[ "pattern"; "sim mean"; "sim p99"; "intra share %"; "vs model %" ]
  in
  let run name pattern =
    let r =
      Runner.run_scenario
        (Scenario.make ~system ~message ~pattern ~protocol ~load:(Scenario.Fixed lambda_g) ())
    in
    let mean = r.Runner.latency.Fatnet_stats.Summary.mean in
    let intra_share =
      100.
      *. float_of_int r.Runner.intra_latency.Fatnet_stats.Summary.count
      /. float_of_int r.Runner.latency.Fatnet_stats.Summary.count
    in
    Fatnet_report.Table.add_row table
      [
        name;
        Printf.sprintf "%.4g" mean;
        Printf.sprintf "%.4g" r.Runner.latency.Fatnet_stats.Summary.p99;
        Printf.sprintf "%.1f" intra_share;
        Printf.sprintf "%+.1f" (100. *. (mean -. model) /. model);
      ]
  in
  run "uniform (Assumption 2)" D.Uniform;
  List.iter
    (fun p -> run (Printf.sprintf "local p=%.2f" p) (D.Local { p_local = p }))
    [ 0.25; 0.5; 0.75; 0.9 ];
  (* The locality pattern is symmetric enough that the model extends
     to it (Fatnet_model.Pattern): the pattern's outgoing probability
     replaces Eq. (2) in the workspace.  Compare its predictions too. *)
  Printf.printf "\nlocality-extended model (this repository's extension of the paper):\n";
  List.iter
    (fun p ->
      let outgoing cluster =
        Pattern.outgoing_probability (Pattern.Local { p_local = p }) ~system ~cluster
      in
      let predicted = Eval.mean_into (Eval.workspace ~outgoing ~system ~message ()) ~lambda_g in
      Printf.printf "  local p=%.2f -> model %.4g\n" p predicted)
    [ 0.25; 0.5; 0.75; 0.9 ];
  print_newline ();
  List.iter
    (fun f -> run (Printf.sprintf "hotspot %.0f%% -> node 0" (100. *. f)) (D.Hotspot { node = 0; fraction = f }))
    [ 0.1; 0.25; 0.4 ];
  Fatnet_report.Table.print table;
  print_endline
    "\nReading: locality pulls traffic off the slow egress networks, so latency\n\
     falls well below the uniform-traffic prediction; a hotspot concentrates\n\
     ejection-channel contention at one node and blows the tail latency up long\n\
     before the mean moves much. Extending the analytical model to these\n\
     patterns is exactly the future work the paper names."

(* Bottleneck analysis: Section 4's "typical analysis" generalised.

   The paper observes that the inter-cluster networks — especially
   ICN2 — are the system bottleneck, and shows (Fig. 7) the effect of
   a 20% ICN2 bandwidth increase.  Here we sweep the upgrade factor
   over both Table-1 organizations and also try the alternative
   upgrade (faster ECN1s) to see which investment buys more.

   Run with: dune exec examples/bottleneck_analysis.exe *)

module Params = Fatnet_model.Params
module Presets = Fatnet_model.Presets
module Eval = Fatnet_model.Eval

let message = Presets.message ~m_flits:128 ~d_m_bytes:256.

let with_ecn1_bandwidth_scaled sys ~factor =
  {
    sys with
    Params.clusters =
      Array.map
        (fun c ->
          {
            c with
            Params.ecn1 =
              { c.Params.ecn1 with Params.bandwidth = c.Params.ecn1.Params.bandwidth *. factor };
          })
        sys.Params.clusters;
  }

let () =
  List.iter
    (fun (name, base) ->
      Printf.printf "== %s ==\n" name;
      (* Ask the model what binds, before sweeping anything. *)
      let top =
        Fatnet_model.Utilization.analyze ~system:base ~message
          ~lambda_g:1e-4 ()
      in
      Printf.printf "most-loaded resources (analytical, λ_g=1e-4):\n";
      List.iteri
        (fun rank e ->
          if rank < 3 then
            Format.printf "  %d. %a — ρ=%.3f, saturates at λ_g=%.4g@."
              (rank + 1) Fatnet_model.Utilization.pp_resource
              e.Fatnet_model.Utilization.resource e.Fatnet_model.Utilization.rho
              e.Fatnet_model.Utilization.saturates_at)
        top;
      let base_ws = Eval.workspace ~system:base ~message () in
      let base_sat = Eval.saturation_rate base_ws in
      let probe = 0.8 *. base_sat in
      let base_latency = Eval.mean_into base_ws ~lambda_g:probe in
      Printf.printf "baseline: saturation λ_g=%.4g, latency at 80%% load %.4g\n\n" base_sat
        base_latency;
      let table =
        Fatnet_report.Table.create
          ~columns:
            [
              "upgrade";
              "factor";
              "saturation λ_g";
              "sat. gain %";
              "latency @ probe";
              "latency gain %";
            ]
      in
      let row label sys factor =
        let ws = Eval.workspace ~system:sys ~message () in
        let sat = Eval.saturation_rate ws in
        let l = Eval.mean_into ws ~lambda_g:probe in
        Fatnet_report.Table.add_row table
          [
            label;
            Printf.sprintf "%.1f" factor;
            Printf.sprintf "%.4g" sat;
            Printf.sprintf "%+.1f" (100. *. ((sat /. base_sat) -. 1.));
            (if Float.is_finite l then Printf.sprintf "%.4g" l else "sat.");
            (if Float.is_finite l then Printf.sprintf "%+.1f" (100. *. ((base_latency -. l) /. base_latency))
             else "-");
          ]
      in
      List.iter
        (fun factor ->
          row "ICN2 bandwidth" (Presets.with_icn2_bandwidth_scaled base ~factor) factor)
        [ 1.2; 1.4; 1.6 ];
      List.iter
        (fun factor -> row "ECN1 bandwidth" (with_ecn1_bandwidth_scaled base ~factor) factor)
        [ 1.2; 1.4; 1.6 ];
      Fatnet_report.Table.print table;
      print_newline ())
    [ ("N=1120, m=8 (Table 1, row 1)", Presets.org_1120); ("N=544, m=4 (Table 1, row 2)", Presets.org_544) ];
  print_endline
    "Reading: upgrading the concentrator-facing ICN2 moves the saturation point\n\
     (it is the first queue to diverge), while upgrading the ECN1s mostly lowers\n\
     the pre-saturation latency — the two investments fix different bottlenecks.\n\
     The N=544 system benefits more from the ICN2 upgrade, matching Fig. 7."

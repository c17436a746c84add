(* Evaluate the analytical model from the command line.

   `cluster_model --scenario examples/fig3.scn --lambda 1e-4`
   `cluster_model --org 1120 --m-flits 32 --flit-bytes 256 --lambda 1e-4`
   `cluster_model --org 544 --sweep --steps 10`
   `cluster_model --clusters 4 --depth 2 --arity 4 --saturation` *)

module Params = Fatnet_model.Params
module Eval = Fatnet_model.Eval
module Utilization = Fatnet_model.Utilization
module Scenario = Fatnet_scenario.Scenario
module Cli = Fatnet_cli.Cli
module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace
module Table = Fatnet_report.Table

(* The per-cluster breakdown: one kernel evaluation, then each
   cluster's terms read through its cluster class. *)
let print_breakdown (scn : Scenario.t) =
  let lambda_g = Scenario.require_lambda scn in
  let ws = Scenario.evaluator scn in
  Printf.printf "mean latency at λ_g=%g: %g\n\n" lambda_g (Eval.mean_into ws ~lambda_g);
  let t = Eval.terms ws in
  let sys = scn.Scenario.system in
  let table =
    Table.create
      ~columns:[ "cluster"; "N_i"; "U_i"; "L_in"; "W_in"; "T_in"; "E_in"; "L_out"; "combined" ]
  in
  Array.iteri
    (fun i a ->
      Table.add_row table
        ([
           string_of_int i;
           string_of_int (Params.cluster_nodes sys i);
           Printf.sprintf "%.4f" t.Eval.u.(a);
         ]
        @ List.map
            (fun x -> if Float.is_finite x then Printf.sprintf "%.5g" x else "sat.")
            [
              t.Eval.intra_total.(a);
              t.Eval.intra_waiting.(a);
              t.Eval.intra_network.(a);
              t.Eval.intra_tail.(a);
              (if Params.cluster_count sys < 2 then nan else t.Eval.inter_total.(i));
              t.Eval.combined.(i);
            ]))
    t.Eval.cluster_class;
  Table.print table

(* [steps] evenly spaced rates from 0 to 0.95 of the scenario's own
   saturation rate, under its variants and traffic pattern, so every
   point is finite. *)
let print_sweep (scn : Scenario.t) ~steps =
  if steps < 2 then invalid_arg "--steps: a sweep needs at least 2 points";
  let ws = Scenario.evaluator scn in
  let lo = 0. and hi = 0.95 *. Eval.saturation_rate ws in
  if not (lo < hi) then invalid_arg "--sweep: the model saturates at zero load";
  let points =
    List.init steps (fun i ->
        let frac = float_of_int i /. float_of_int (steps - 1) in
        let lambda_g = lo +. (frac *. (hi -. lo)) in
        (lambda_g, Eval.mean_into ws ~lambda_g))
  in
  let table = Table.create ~columns:[ "lambda_g"; "mean latency" ] in
  List.iter (fun (l, latency) -> Table.add_float_row table [ l; latency ]) points;
  Table.print table;
  Fatnet_report.Ascii_plot.print ~height:14
    [
      Fatnet_report.Series.create ~name:"mean latency"
        ~points:(List.filter (fun (_, latency) -> Float.is_finite latency) points);
    ]

let run scenario system message lambda sweep steps saturation mopts topts =
  Cli.guard @@ fun () ->
  let ( let* ) = Result.bind in
  let default_load = Scenario.Fixed (Option.value lambda ~default:1e-4) in
  let* scn = Cli.resolve ~default_load ~scenario ~system ~message () in
  let scn = match lambda with Some l -> Scenario.at scn l | None -> scn in
  Format.printf "system: @[%a@]@.@." Params.pp_system scn.Scenario.system;
  let metrics = Cli.metrics_registry mopts in
  Metrics.set_meta metrics "command" "cluster_model";
  Option.iter (Metrics.set_meta metrics "scenario") scenario;
  let tracer = Cli.tracer_of_opts topts in
  (* The model and solver record through the ambient registry and
     trace, so running the evaluation under [with_ambient] is the
     whole hookup. *)
  Metrics.with_ambient metrics @@ fun () ->
  Trace.with_ambient tracer @@ fun () ->
  (* The root span closes before the exports below, so the written
     trace contains it. *)
  Trace.in_span tracer "model.run" (fun _ ->
  if saturation then begin
    let sat = Scenario.saturation_rate scn in
    Printf.printf "saturation rate: λ_g = %g\n" sat;
    let b =
      Utilization.bottleneck ~variants:scn.Scenario.variants ~system:scn.Scenario.system
        ~message:scn.Scenario.message ()
    in
    Format.printf "binding resource: %a (ρ = 1 at λ_g = %.4g)@." Utilization.pp_resource
      b.Utilization.resource b.Utilization.saturates_at
  end;
  if sweep then print_sweep scn ~steps
  else if not saturation then print_breakdown scn);
  Cli.write_metrics mopts metrics;
  Cli.write_trace topts tracer;
  Ok 0

open Cmdliner

let lambda =
  Arg.(
    value
    & opt (some float) None
    & info [ "lambda" ] ~doc:"Traffic generation rate λ_g (default 1e-4).")

let sweep = Arg.(value & flag & info [ "sweep" ] ~doc:"Sweep λ_g up to saturation.")
let steps = Arg.(value & opt int 12 & info [ "steps" ] ~doc:"Sweep points.")

let saturation =
  Arg.(value & flag & info [ "saturation" ] ~doc:"Print the model's saturation rate.")

let () =
  let term =
    Term.(
      const run $ Cli.scenario_file $ Cli.system_opts $ Cli.message_opts $ lambda $ sweep
      $ steps $ saturation $ Cli.metrics_opts $ Cli.trace_opts)
  in
  exit (Cmd.eval' (Cmd.v (Cmd.info "cluster_model" ~doc:"Analytical latency model") term))

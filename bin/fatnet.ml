(* fatnet: the paper's model, its simulator, its figures, the sweep
   engine and the latency oracle behind one command line (the command
   map is in README.md).  Every flag is declared once, in
   `Fatnet_cli.Cli`; `Cli.resolve`/`Cli.apply` turn a command's base
   scenario (a .scn file, a figure preset, or the scenario built from
   --org/--clusters/...) and the flags given into the scenario it
   runs; every command body runs under `Cli.guard`, whose exit table
   `fatnet --help` prints.  `bin/experiments.exe` is a build-time copy
   of this program. *)

module Params = Fatnet_model.Params
module Eval = Fatnet_model.Eval
module Utilization = Fatnet_model.Utilization
module Figures = Fatnet_experiments.Figures
module Ablations = Fatnet_experiments.Ablations
module Sweep_engine = Fatnet_experiments.Sweep_engine
module Scenario = Fatnet_scenario.Scenario
module Runner = Fatnet_sim.Runner
module Summary = Fatnet_stats.Summary
module Cli = Fatnet_cli.Cli
module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace
module Log = Fatnet_obs.Log
module Series = Fatnet_report.Series
module Table = Fatnet_report.Table
module Progress = Fatnet_report.Progress
module Serve = Fatnet_serve.Server
module Oracle = Fatnet_serve.Oracle
module Protocol = Fatnet_serve.Protocol
open Cmdliner

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
      let* y = f x in
      let* ys = map_result f xs in
      Ok (y :: ys)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* fatnet model *)

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
      Series.create ~name:"mean latency"
        ~points:(List.filter (fun (_, latency) -> Float.is_finite latency) points);
    ]

let model_run scenario system message lambda sweep steps saturation mopts topts () =
  let* () =
    if steps <> None && not sweep then Error "--steps cannot take effect without --sweep"
    else if lambda <> None && (sweep || saturation) then
      Error "--lambda cannot take effect with --sweep or --saturation"
    else Ok ()
  in
  let* scn = Cli.resolve ~scenario { Cli.none with system; message; lambda } in
  let metrics = Cli.metrics_registry mopts in
  Format.printf "system: @[%a@]@.@." Params.pp_system scn.Scenario.system;
  Metrics.set_meta metrics "command" "model";
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
      if sweep then print_sweep scn ~steps:(Option.value steps ~default:12)
      else if not saturation then print_breakdown scn);
  Cli.write_metrics mopts metrics;
  Cli.write_trace topts tracer;
  Ok 0

let model_cmd =
  Cli.command "model"
    ~doc:
      "Evaluate the analytical model: the per-cluster breakdown at one rate, the saturation \
       rate (--saturation) or a sweep up to saturation (--sweep)"
    Term.(
      const model_run $ Cli.scenario_file $ Cli.system_opts $ Cli.message_opts $ Cli.lambda
      $ Cli.sweep $ Cli.steps $ Cli.saturation $ Cli.metrics_opts $ Cli.trace_opts)

(* ------------------------------------------------------------------ *)
(* fatnet sim *)

let sim_run scenario system message lambda full seed store_and_forward pattern trace_path mopts
    topts () =
  let sizes = if full then Some Scenario.default_protocol else None in
  let* scn =
    Cli.resolve ~protocol:Scenario.quick_protocol ~scenario
      { Cli.none with system; message; lambda; seed; sizes; store_and_forward; pattern }
  in
  let lambda_g = Scenario.require_lambda scn in
  let metrics = Cli.metrics_registry mopts in
  let trace_channel = Option.map open_out trace_path in
  let trace =
    Option.map
      (fun oc ->
        output_string oc "serial,src,dst,generated_at,delivered_at,latency,class,measured\n";
        fun (t : Runner.trace_record) ->
          Printf.fprintf oc "%d,%d,%d,%.9g,%.9g,%.9g,%s,%b\n" t.Runner.serial t.Runner.src
            t.Runner.dst t.Runner.generated_at t.Runner.delivered_at
            (t.Runner.delivered_at -. t.Runner.generated_at)
            (if t.Runner.is_intra then "intra" else "inter")
            t.Runner.measured)
      trace_channel
  in
  Metrics.set_meta metrics "command" "sim";
  Option.iter (Metrics.set_meta metrics "scenario") scenario;
  Metrics.set_meta metrics "lambda_g" (Printf.sprintf "%g" lambda_g);
  let tracer = Cli.tracer_of_opts topts in
  let r = Trace.with_ambient tracer (fun () -> Runner.run_scenario ?trace ~metrics scn) in
  Option.iter close_out trace_channel;
  Option.iter (Printf.printf "message trace written to %s\n") trace_path;
  Format.printf "system: @[%a@]@." Params.pp_system scn.Scenario.system;
  Printf.printf "λ_g=%g  generated=%d  measured-delivered=%d\n" lambda_g r.Runner.generated
    r.Runner.delivered;
  (* A too-short run has no CI (NaN): print "--", never raw nan. *)
  let ci =
    if Float.is_nan r.Runner.ci95_half_width then "--"
    else Printf.sprintf "%.3g" r.Runner.ci95_half_width
  in
  Format.printf "latency (all):   %a  ±%s (95%% CI)@." Summary.pp r.Runner.latency ci;
  Format.printf "latency (intra): %a@." Summary.pp r.Runner.intra_latency;
  Format.printf "latency (inter): %a@." Summary.pp r.Runner.inter_latency;
  print_endline "busiest channels:";
  List.iter
    (fun (desc, util) -> Printf.printf "  %5.1f%%  %s\n" (100. *. util) desc)
    r.Runner.bottlenecks;
  Printf.printf "sim end time=%g  events=%d  wall=%.2fs (%.2f Mevents/s)\n" r.Runner.end_time
    r.Runner.events r.Runner.wall_seconds
    (float_of_int r.Runner.events /. 1e6 /. r.Runner.wall_seconds);
  Cli.write_metrics mopts metrics;
  Cli.write_trace topts tracer;
  Ok 0

let sim_cmd =
  Cli.command "sim" ~doc:"Run one discrete-event wormhole simulation"
    Term.(
      const sim_run $ Cli.scenario_file $ Cli.system_opts $ Cli.message_opts $ Cli.lambda
      $ Cli.full $ Cli.seed $ Cli.store_and_forward $ Cli.pattern_opts $ Cli.message_trace
      $ Cli.metrics_opts $ Cli.trace_opts)

(* ------------------------------------------------------------------ *)
(* fatnet fig / errors / ablate / tables / list / export *)

(* Scheduler/cache accounting goes to stderr (via the shared logger,
   so it never tears the progress line) so piping a command's stdout
   (tables, CSV paths, metrics on [-]) stays clean. *)
let print_sweep_stats (s : Sweep_engine.stats) =
  Log.info
    "sweep: %d points (%d executed, %d memoized, %d cached), %d domain%s, occupancy [%s], %.2f s%s%s"
    s.Sweep_engine.points s.Sweep_engine.executed s.Sweep_engine.memo_hits
    s.Sweep_engine.cache_hits s.Sweep_engine.domains_used
    (if s.Sweep_engine.domains_used = 1 then "" else "s")
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%.2f") s.Sweep_engine.occupancy)))
    s.Sweep_engine.wall_seconds
    (if s.Sweep_engine.retries > 0 || s.Sweep_engine.quarantined > 0 then
       Printf.sprintf ", %d retr%s, %d quarantined" s.Sweep_engine.retries
         (if s.Sweep_engine.retries = 1 then "y" else "ies")
         s.Sweep_engine.quarantined
     else "")
    (if s.Sweep_engine.cache_degraded then ", cache degraded" else "")

(* One family (mean, or a tail quantile) of a figure: table on the
   simulation grid, ASCII plot clipped to the model's ceiling, CSV. *)
let print_family spec ~sim_steps ~model ~sim ~csv_path =
  let all = model @ sim in
  let table =
    Table.create ~columns:("lambda_g" :: List.map (fun s -> s.Series.name) all)
  in
  let xs =
    List.init sim_steps (fun i ->
        spec.Figures.lambda_max *. float_of_int (i + 1) /. float_of_int sim_steps)
  in
  List.iter
    (fun x ->
      let value s =
        match List.find_opt (fun (px, _) -> Float.abs (px -. x) < 1e-15) s.Series.points with
        | Some (_, y) -> y
        | None -> (
            match Series.finite s with
            | { Series.points = []; _ } -> nan
            | fs ->
                let arr = Array.of_list fs.Series.points in
                let interp = Fatnet_numerics.Interp.create arr in
                let lo, hi = Fatnet_numerics.Interp.domain interp in
                if x < lo || x > hi then nan else Fatnet_numerics.Interp.eval interp x)
      in
      Table.add_float_row table (x :: List.map value all))
    xs;
  Table.print table;
  (* Clip the plot to a sensible ceiling: simulated points blow up
     near saturation and would crush the rest of the curves. *)
  let model_max =
    List.concat_map (fun s -> List.map snd (Series.finite s).Series.points) model
    |> List.fold_left Float.max 0.
  in
  if model_max > 0. then
    Fatnet_report.Ascii_plot.print ~height:16 ~y_cap:(2. *. model_max) all;
  Series.write_csv ~path:csv_path all;
  Printf.printf "wrote %s\n\n%!" csv_path

let run_figure ~tracer ~show_progress spec ~model_steps ~sim_steps ~engine ~with_sim ~p99
    ~out_dir =
  Printf.printf "== %s: %s ==\n%!" spec.Figures.id spec.Figures.title;
  let model = Figures.model_series spec ~steps:model_steps in
  (* One engine batch feeds both the mean curves and (with --p99) the
     tail family: the summaries carry the full distribution, so the
     quantile series are a projection, not a second sweep. *)
  let summaries =
    if with_sim then begin
      let n_sim =
        sim_steps
        * List.length (List.filter (fun c -> c.Figures.simulate) spec.Figures.curves)
      in
      let progress =
        if show_progress && n_sim > 0 then Some (Progress.create ~total:n_sim tracer)
        else None
      in
      let per_curve, stats =
        Fun.protect
          ~finally:(fun () -> Option.iter Progress.finish progress)
          (fun () -> Figures.sim_summaries_stats ~engine spec ~steps:sim_steps)
      in
      print_sweep_stats stats;
      Some per_curve
    end
    else None
  in
  let sim =
    match summaries with
    | Some per_curve -> Figures.mean_series_of_summaries per_curve
    | None -> []
  in
  Fatnet_experiments.Fs_util.mkdir_p out_dir;
  print_family spec ~sim_steps ~model ~sim
    ~csv_path:(Filename.concat out_dir (spec.Figures.id ^ ".csv"));
  if p99 then begin
    let q = 0.99 in
    let family = Figures.quantile_id spec ~q in
    Printf.printf "== %s: %s, predicted vs simulated p99 ==\n%!" family spec.Figures.title;
    let model_q = Figures.model_quantile_series spec ~steps:model_steps ~q in
    let sim_q =
      match summaries with
      | Some per_curve -> Figures.quantile_series_of_summaries ~q per_curve
      | None -> []
    in
    print_family spec ~sim_steps ~model:model_q ~sim:sim_q
      ~csv_path:(Filename.concat out_dir (family ^ ".csv"))
  end

(* Every curve scenario of a figure through [f] (the override rule). *)
let override_spec f (spec : Figures.spec) =
  let* curves =
    map_result
      (fun c -> Result.map (fun scenario -> { c with Figures.scenario }) (f c.Figures.scenario))
      spec.Figures.curves
  in
  Ok { spec with Figures.curves }

(* The CI smoke's stopping rule, for a scenario that brings none. *)
let smoke_replication =
  { Scenario.target_rel = 0.1; confidence = 0.95; min_reps = 2; max_reps = 4; target = Mean }

let no_engine_flags =
  { Cli.domains = None; no_cache = false; cache_dir = None; retries = None; fail_fast = false;
    inject_faults = None }

(* A figure runs at one of three sizes — --quick (the CI smoke), the
   default (Scenario.quick_protocol's counts) or --full (the paper's)
   — and under every other field of its preset or file, replaced
   only by the flags given. *)
let fig_run id scenario model_steps sim_steps quick full no_sim p99 out seed replication eopts
    topts () =
  let* specs =
    match (id, scenario) with
    | Some _, Some _ -> Error "give a FIGURE id or --scenario FILE, not both"
    | None, Some path -> Result.map (fun s -> [ Figures.of_scenario s ]) (Scenario.load path)
    | Some id, None -> (
        match Figures.find id with
        | Some spec -> Ok [ spec ]
        | None -> Error ("unknown figure: " ^ id))
    | None, None -> Ok Figures.all
  in
  let* () =
    if quick && full then Error "--quick and --full are exclusive"
    else if
      no_sim
      && (full || seed <> None || replication <> Cli.none.Cli.replication
         || eopts <> no_engine_flags)
    then Error "--no-sim: the simulation flags cannot take effect"
    else Ok ()
  in
  let sizes =
    if quick then Cli.smoke_sizes
    else if full then Scenario.default_protocol
    else Scenario.quick_protocol
  in
  let base (s : Scenario.t) =
    if quick && s.Scenario.replication = None then
      { s with Scenario.replication = Some smoke_replication }
    else s
  in
  let o = { Cli.none with sizes = Some sizes; seed; replication } in
  let* specs = map_result (override_spec (fun s -> Cli.apply o (base s))) specs in
  let tracer = Cli.tracer_of_opts ~progress:true topts in
  let engine = Cli.engine_of_opts ~tracer eopts in
  List.iter
    (fun spec ->
      run_figure spec ~tracer ~show_progress:(Cli.progress_wanted topts)
        ~model_steps:(Option.value model_steps ~default:(if quick then 16 else 24))
        ~sim_steps:(Option.value sim_steps ~default:(if quick then 3 else Figures.default_steps))
        ~engine ~with_sim:(not no_sim) ~p99
        ~out_dir:(Option.value out ~default:"results"))
    specs;
  Cli.write_trace topts tracer;
  Ok 0

let fig_cmd =
  Cli.command "fig"
    ~doc:
      "Regenerate a figure (by id or from --scenario), or every figure when neither is \
       given; --quick is the CI smoke (with CI-adaptive replications when the scenario has \
       no [replication] section)"
    Term.(
      const fig_run
      $ Arg.(value & pos 0 (some string) None & info [] ~docv:"FIGURE")
      $ Cli.scenario_file $ Cli.model_steps $ Cli.sim_steps $ Cli.quick $ Cli.full $ Cli.no_sim
      $ Cli.p99 $ Cli.out_dir $ Cli.seed $ Cli.replication_opts $ Cli.engine_opts
      $ Cli.trace_opts)

let errors_run full () =
  let sizes = Some (if full then Scenario.default_protocol else Scenario.quick_protocol) in
  let* specs = map_result (override_spec (Cli.apply { Cli.none with sizes })) Figures.all in
  let table = Table.create ~columns:[ "figure"; "curve"; "light-load error %" ] in
  List.iter
    (fun spec ->
      if List.exists (fun c -> c.Figures.simulate) spec.Figures.curves then
        List.iter
          (fun (label, err) ->
            Table.add_row table
              [ spec.Figures.id; label; Printf.sprintf "%.1f" (100. *. err) ])
          (Figures.light_load_error spec))
    specs;
  Table.print table;
  print_endline "(paper, Section 4: \"at light traffic the model differs from simulation by about 4 to 8 percent\")";
  Ok 0

let errors_cmd =
  Cli.command "errors" ~doc:"Light-load model-vs-simulation error (Section 4 claim)"
    Term.(const errors_run $ Cli.full)

let ablate_run id steps full () =
  let* a = Option.to_result ~none:("unknown ablation: " ^ id) (Ablations.find id) in
  let* table =
    match a.Ablations.run with
    | Ablations.Model _ when steps <> None || full ->
        Error (id ^ " is model-only: --steps and --full cannot take effect")
    | Ablations.Model run -> Ok run
    | Ablations.Simulated run ->
        let protocol = if full then Scenario.default_protocol else Scenario.quick_protocol in
        Ok (fun () -> run ~steps:(Option.value steps ~default:6) ~protocol)
  in
  Printf.printf "== ablation %s: %s ==\n%!" a.Ablations.id a.Ablations.description;
  Table.print (table ());
  Ok 0

let ablate_cmd =
  Cli.command "ablate"
    ~doc:
      "Run an ablation study.  Only cd-mode simulates and takes --steps and --full; the \
       model-only ablations exit 2 when given either"
    Term.(
      const ablate_run
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"ABLATION")
      $ Cli.steps $ Cli.full)

let tables_run () =
  let t1 = Table.create ~columns:[ "org"; "N"; "C"; "m"; "n_c"; "cluster depths" ] in
  List.iter
    (fun (name, sys) ->
      let depths =
        Array.to_list sys.Params.clusters
        |> List.map (fun c -> string_of_int c.Params.tree_depth)
        |> String.concat ","
      in
      Table.add_row t1
        [
          name;
          string_of_int (Params.total_nodes sys);
          string_of_int (Params.cluster_count sys);
          string_of_int sys.Params.m;
          string_of_int sys.Params.icn2_depth;
          depths;
        ])
    [ ("N=1120", Fatnet_model.Presets.org_1120); ("N=544", Fatnet_model.Presets.org_544) ];
  print_endline "Table 1: system organizations";
  Table.print t1;
  let t2 = Table.create ~columns:[ "network"; "bandwidth"; "network latency"; "switch latency" ] in
  List.iter
    (fun (name, n) ->
      Table.add_row t2
        [
          name;
          Printf.sprintf "%g" n.Params.bandwidth;
          Printf.sprintf "%g" n.Params.network_latency;
          Printf.sprintf "%g" n.Params.switch_latency;
        ])
    [ ("Net.1 (ICN1, ICN2)", Fatnet_model.Presets.net1); ("Net.2 (ECN1)", Fatnet_model.Presets.net2) ];
  print_endline "Table 2: network characteristics";
  Table.print t2;
  Ok 0

let list_run () =
  print_endline "figures:";
  List.iter
    (fun s -> Printf.printf "  %-6s %s\n" s.Figures.id s.Figures.title)
    Figures.all;
  print_endline "ablations:";
  List.iter (fun a -> Printf.printf "  %-16s %s\n" a.Ablations.id a.Ablations.description)
    Ablations.all;
  Ok 0

(* `fatnet export fig3` regenerates the checked-in scenario files:
   the exported file is the figure's base scenario, so loading it
   back reproduces the preset spec exactly. *)
let export_run id out () =
  match Figures.find id with
  | None -> Error ("unknown figure: " ^ id)
  | Some spec -> (
      match Figures.to_scenario spec with
      | None ->
          Error
            (id
           ^ " has no single base scenario (its curves differ in more than flit size); \
              nothing to export")
      | Some base ->
          let path = Option.value out ~default:(Filename.concat "examples" (id ^ ".scn")) in
          Scenario.save ~path base;
          Printf.printf "wrote %s (hash %s)\n" path (Scenario.hash base);
          Ok 0)

let tables_cmd = Cli.command "tables" ~doc:"Print Tables 1 and 2" Term.(const tables_run)
let list_cmd = Cli.command "list" ~doc:"List figures and ablations" Term.(const list_run)

let export_cmd =
  Cli.command "export" ~doc:"Write a figure's base scenario to a .scn file"
    Term.(
      const export_run
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE")
      $ Cli.output)

(* ------------------------------------------------------------------ *)
(* fatnet sweep / report / timeline *)

(* `fatnet sweep FILE` runs an arbitrary scenario's load axis through
   the orchestrator — any new workload is a new .scn file, not a new
   code path. *)
let sweep_run file scenario out seed replication eopts mopts topts () =
  let* file =
    match (file, scenario) with
    | Some _, Some _ -> Error "give the scenario as FILE or as --scenario FILE, not both"
    | Some f, None | None, Some f -> Ok f
    | None, None -> Error "a scenario FILE (positional or --scenario) is required"
  in
  let* scn = Cli.resolve ~scenario:(Some file) { Cli.none with seed; replication } in
  let metrics = Cli.metrics_registry mopts in
  let tracer = Cli.tracer_of_opts ~progress:true topts in
  let config = Cli.engine_of_opts ~tracer ~metrics eopts in
  Printf.printf "== scenario %s ==\n%!" (if scn.Scenario.name = "" then file else scn.Scenario.name);
  Metrics.set_meta metrics "command" "sweep";
  Metrics.set_meta metrics "scenario" file;
  Metrics.set_meta metrics "scenario_name" scn.Scenario.name;
  Metrics.set_meta metrics "scenario_hash" (Scenario.hash scn);
  (* The analytical side of the sweep: evaluating the saturation rate
     under the ambient registry records the solver's
     bisection/bracketing counters into the same snapshot as the
     simulator and scheduler series.  The ambient tracer makes the
     same solve contribute its solver spans. *)
  if Metrics.is_enabled metrics then
    Metrics.with_ambient metrics (fun () ->
        Trace.with_ambient tracer (fun () -> ignore (Scenario.saturation_rate scn)));
  let lambdas = Scenario.lambdas scn in
  let progress =
    if Cli.progress_wanted topts then Some (Progress.create ~total:(List.length lambdas) tracer)
    else None
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Option.iter Progress.finish progress)
      (fun () -> Sweep_engine.run_sweep ~config scn)
  in
  let results = outcome.Sweep_engine.results in
  print_sweep_stats outcome.Sweep_engine.stats;
  List.iter
    (fun f ->
      Log.warn "quarantined: point %d%s after %d attempt%s: %s" f.Sweep_engine.index
        (match f.Sweep_engine.lambda_g with
        | Some l -> Printf.sprintf " (lambda_g=%g)" l
        | None -> "")
        f.Sweep_engine.attempts
        (if f.Sweep_engine.attempts = 1 then "" else "s")
        (Printexc.to_string f.Sweep_engine.error))
    outcome.Sweep_engine.quarantined;
  let table =
    Table.create
      ~columns:
        [ "lambda_g"; "sim mean"; "sim p99"; "ci half-width"; "reps"; "model mean"; "model p99" ]
  in
  (* Quarantined points keep their table row (marked [quar.], to keep
     them distinct from [sat.], the NaN of a saturated model cell) so
     the load axis stays aligned; the CSV carries survivors only. *)
  let cell x = if Float.is_finite x then Printf.sprintf "%.6g" x else "sat." in
  (* One workspace for both the table's model column and the CSV
     model series; the model p99 reuses it: one kernel evaluation
     plus the tail fit per point. *)
  let ws = Scenario.evaluator scn in
  let model_p99 lambda_g = Eval.quantile ws ~lambda_g ~q:0.99 in
  List.iteri
    (fun i lambda_g ->
      let model = Eval.mean_into ws ~lambda_g in
      match results.(i) with
      | Some r ->
          Table.add_float_row table
            [
              lambda_g;
              r.Runner.summary.Summary.mean;
              r.Runner.summary.Summary.p99;
              r.Runner.ci_half_width;
              float_of_int r.Runner.replications;
              model;
              model_p99 lambda_g;
            ]
      | None ->
          Table.add_row table
            [
              cell lambda_g; "quar."; "quar."; "quar."; "quar."; cell model;
              cell (model_p99 lambda_g);
            ])
    lambdas;
  Table.print table;
  let out_dir = Option.value out ~default:"results/sweep" in
  Fatnet_experiments.Fs_util.mkdir_p out_dir;
  let name = if scn.Scenario.name = "" then "sweep" else scn.Scenario.name in
  let path = Filename.concat out_dir (name ^ ".csv") in
  let surviving project =
    List.concat
      (List.mapi
         (fun i l -> match results.(i) with Some r -> [ (l, project r) ] | None -> [])
         lambdas)
  in
  Series.write_csv ~path
    [
      Series.create ~name:"sim"
        ~points:(surviving (fun r -> r.Runner.summary.Summary.mean));
      Series.create ~name:"sim p99"
        ~points:(surviving (fun r -> r.Runner.summary.Summary.p99));
      Series.create ~name:"model"
        ~points:(List.map (fun l -> (l, Eval.mean_into ws ~lambda_g:l)) lambdas);
      Series.create ~name:"model p99" ~points:(List.map (fun l -> (l, model_p99 l)) lambdas);
    ];
  Printf.printf "wrote %s\n%!" path;
  Cli.write_metrics mopts metrics;
  Cli.write_trace topts tracer;
  Ok (if outcome.Sweep_engine.quarantined = [] then 0 else 3)

let sweep_cmd =
  Cli.command "sweep" ~doc:"Run a scenario file's load axis through the sweep engine"
    Term.(
      const sweep_run
      $ Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE")
      $ Cli.scenario_file $ Cli.out_dir $ Cli.seed $ Cli.replication_opts $ Cli.engine_opts
      $ Cli.metrics_opts $ Cli.trace_opts)

(* `fatnet report [FILE]` re-renders a saved metrics snapshot — by
   default as the human table/bar view, or back through the machine
   formats with --format. *)
let report_run file format () =
  let path = Option.value file ~default:Cli.default_metrics_file in
  if not (Sys.file_exists path) then
    Error (path ^ ": no metrics snapshot found (run a command with --metrics first)")
  else
    match Metrics.Snapshot.of_json (read_file path) with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok snapshot ->
        print_string (Cli.render_metrics format snapshot);
        Ok 0

let report_cmd =
  Cli.command "report"
    ~doc:"Render a --metrics snapshot (histograms as bars, counters as a table)"
    Term.(
      const report_run
      $ Arg.(
          value
          & pos 0 (some string) None
          & info [] ~docv:"FILE"
              ~doc:("Metrics snapshot to render (default " ^ Cli.default_metrics_file ^ ")."))
      $ Cli.format)

(* `fatnet timeline [FILE]` renders a --trace span file as the human
   timeline view: top-N slowest spans with self time, then the by-name
   aggregate. *)
let timeline_run file top () =
  let path = Option.value file ~default:Cli.default_trace_file in
  if not (Sys.file_exists path) then
    Error (path ^ ": no trace found (run a command with --trace first)")
  else
    match Trace.spans_of_chrome_json (read_file path) with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok spans ->
        print_string (Fatnet_report.Trace_report.render ~top spans);
        Ok 0

let timeline_cmd =
  Cli.command "timeline"
    ~doc:"Render a --trace span file (slowest spans with self time, by-name aggregate)"
    Term.(
      const timeline_run
      $ Arg.(
          value
          & pos 0 (some string) None
          & info [] ~docv:"FILE"
              ~doc:("Chrome trace-event file to render (default " ^ Cli.default_trace_file ^ ")."))
      $ Cli.top)

(* ------------------------------------------------------------------ *)
(* fatnet serve / fatnet query *)

let serve_run scenario system message listen domains memo_capacity no_cache cache_dir
    cache_recovery max_batch mopts topts () =
  let* scn = Cli.resolve ~scenario { Cli.none with system; message } in
  let* address = Serve.address_of_string listen in
  let* domains = Cli.resolve_domains domains in
  if memo_capacity < 0 then Error "--memo-capacity must be >= 0"
  else if cache_recovery < 0 then Error "--cache-recovery must be >= 0"
  else begin
    let cache_dir = Cli.point_cache ~no_cache ~cache_dir in
    (* --metrics FILE additionally writes a snapshot at shutdown. *)
    let reg = Cli.metrics_registry ~live:true mopts in
    Metrics.set_meta reg "command" "serve";
    Metrics.set_meta reg "listen" (Serve.address_to_string address);
    let tracer = Cli.tracer_of_opts topts in
    let oracle =
      Oracle.create ~domains ~memo_capacity ?cache_dir ~cache_recovery ~metrics:reg ~tracer scn
    in
    let stop = Atomic.make false in
    let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
    Sys.set_signal Sys.sigterm on_signal;
    Sys.set_signal Sys.sigint on_signal;
    Fun.protect
      ~finally:(fun () -> Oracle.shutdown oracle)
      (fun () ->
        Cli.with_address (Serve.address_to_string address) (fun () ->
            Serve.serve { Serve.address; max_batch; stop; metrics = reg; tracer } oracle));
    Cli.write_metrics mopts reg;
    Cli.write_trace topts tracer;
    Ok 0
  end

let serve_cmd =
  Cli.command "serve"
    ~doc:
      "Run the latency oracle as a daemon: newline-delimited JSON queries over a Unix or TCP \
       socket, plus an HTTP GET /metrics Prometheus scrape on the same socket.  The \
       point cache (--cache-dir, --no-cache) serves the $(b,point) op."
    Term.(
      const serve_run $ Cli.scenario_file $ Cli.system_opts $ Cli.message_opts $ Cli.listen
      $ Cli.domains $ Cli.memo_capacity $ Cli.no_cache $ Cli.cache_dir $ Cli.cache_recovery
      $ Cli.max_batch $ Cli.metrics_opts $ Cli.trace_opts)

let answer_lines_offline oracle lines =
  List.iter
    (fun line ->
      match Protocol.frame_of_line line with
      | Error msg -> print_string (Protocol.error_line msg)
      | Ok frame ->
          let batched, parsed =
            match frame with
            | Protocol.Single p -> (false, [| p |])
            | Protocol.Batch ps -> (true, Array.of_list ps)
          in
          let rs = Oracle.answer_batch oracle parsed in
          let b = Buffer.create 256 in
          Protocol.buf_add_frame_responses b ~batched rs;
          print_string (Buffer.contents b))
    lines

let answer_lines_socket address lines =
  let sockaddr =
    match address with
    | Serve.Unix_path p -> Unix.ADDR_UNIX p
    | Serve.Tcp (host, port) -> (
        try Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
        with Failure _ -> (
          try Unix.ADDR_INET ((Unix.gethostbyname host).Unix.h_addr_list.(0), port)
          with Not_found -> failwith (Printf.sprintf "cannot resolve host %S" host)))
  in
  let ic, oc = Unix.open_connection sockaddr in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  flush oc;
  (* One answer line per request line, shape mirrored — read exactly
     as many lines as were sent. *)
  List.iter (fun _ -> print_endline (input_line ic)) lines;
  close_in ic

let query_run connect offline scenario system message domains requests () =
  let lines () =
    (match requests with [] -> In_channel.input_lines stdin | rs -> rs)
    |> List.filter (fun l -> String.trim l <> "")
  in
  match (connect, offline) with
  | Some _, true -> Error "--connect and --offline are mutually exclusive"
  | None, false -> Error "pass --connect ADDR (socket client) or --offline (local evaluation)"
  | Some addr, false ->
      if scenario <> None || system <> Cli.none.Cli.system || message <> Cli.none.Cli.message
         || domains <> None
      then Error "--scenario, the system and message flags and --domains apply to --offline only"
      else
        let* address = Serve.address_of_string addr in
        let lines = lines () in
        Cli.with_address (Serve.address_to_string address) (fun () ->
            answer_lines_socket address lines);
        Ok 0
  | None, true ->
      let* scn = Cli.resolve ~scenario { Cli.none with system; message } in
      let* domains = Cli.resolve_domains domains in
      let lines = lines () in
      let oracle = Oracle.create ~domains scn in
      Fun.protect
        ~finally:(fun () -> Oracle.shutdown oracle)
        (fun () -> answer_lines_offline oracle lines);
      Ok 0

let query_cmd =
  Cli.command "query"
    ~doc:
      "Send oracle queries to a running daemon (--connect), or answer them locally \
       (--offline --scenario FILE)."
    Term.(
      const query_run $ Cli.connect $ Cli.offline $ Cli.scenario_file $ Cli.system_opts
      $ Cli.message_opts $ Cli.domains
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"REQUEST" ~doc:"Request lines (JSON); read from stdin when none are given."))

(* ------------------------------------------------------------------ *)
(* fatnet bench report: every record in --baseline, or its fresh
   counterpart in --dir, against the union of both records' gates,
   plus --guard-tol against the baseline's numbers (see
   lib/report/bench_record.mli). *)

let bench_cmd =
  let report dir baseline guard_tol () =
    Ok (Fatnet_report.Bench_record.report ~baseline ~dir ~guard_tol)
  in
  Cmd.group
    (Cmd.info "bench" ~doc:"Benchmark baseline utilities." ~exits:Cli.exits)
    [
      Cli.command "report"
        ~doc:"Render the bench-regression table and exit non-zero on a failed gate."
        Term.(const report $ Cli.bench_dir $ Cli.baseline $ Cli.guard_tol);
    ]

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "fatnet" ~exits:Cli.exits
             ~doc:"The analytical model, simulator, figures and latency oracle of the paper.")
          [
            model_cmd;
            sim_cmd;
            fig_cmd;
            sweep_cmd;
            errors_cmd;
            ablate_cmd;
            tables_cmd;
            list_cmd;
            export_cmd;
            report_cmd;
            timeline_cmd;
            serve_cmd;
            query_cmd;
            bench_cmd;
          ]))

(* Regenerate the paper's figures and tables.

   `experiments list`            enumerate figures and ablations
   `experiments fig fig3`        one figure (model + simulation series)
   `experiments fig --scenario examples/fig3.scn`
                                 the same figure from its scenario file
   `experiments all`             every figure
   `experiments errors`          the Section-4 light-load error check
   `experiments ablate <id>`     one ablation study
   `experiments tables`          print Tables 1 and 2 as parsed
   `experiments export fig3`     write the figure's scenario to examples/fig3.scn
   `experiments sweep FILE`      run an arbitrary scenario file's load axis
                                 (CSV under results/sweep/, --out to move it)
   `experiments sweep FILE --metrics out.json`
                                 the same, collecting run telemetry
   `experiments report [FILE]`   render a saved metrics snapshot
   `experiments sweep FILE --trace out.json`
                                 the same, recording causal spans
   `experiments timeline [FILE]` render a saved --trace span file
   `experiments --quick fig3`    smoke a figure with a tiny protocol

   Sweeps go through the orchestration engine
   (`Fatnet_experiments.Sweep_engine`): points claimed in input order
   on the domain pool (`--domains`), a persistent point
   cache under results/.cache (`--no-cache`, `--cache-dir`), and
   CI-adaptive replications (`--precision`, `--min-reps`,
   `--max-reps`).  The shared flags live in `Fatnet_cli.Cli`. *)

module Figures = Fatnet_experiments.Figures
module Ablations = Fatnet_experiments.Ablations
module Sweep_engine = Fatnet_experiments.Sweep_engine
module Scenario = Fatnet_scenario.Scenario
module Cli = Fatnet_cli.Cli
module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace
module Log = Fatnet_obs.Log
module Series = Fatnet_report.Series
module Table = Fatnet_report.Table
module Progress = Fatnet_report.Progress

let sim_protocol full =
  if full then Scenario.default_protocol else Scenario.quick_protocol

let ensure_dir = Fatnet_experiments.Fs_util.mkdir_p

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

(* A figure spec comes either from the in-code presets (by id) or
   from a scenario file; the two are structurally identical for the
   checked-in examples, so the output is bit-for-bit the same. *)
let resolve_spec ~scenario ~id =
  match scenario with
  | Some path -> Result.map Figures.of_scenario (Scenario.load path)
  | None -> (
      match id with
      | None -> Error "a FIGURE id (or --scenario FILE) is required"
      | Some id -> (
          match Figures.find id with
          | Some spec -> Ok spec
          | None -> Error ("unknown figure: " ^ id)))

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

let run_figure ?(tracer = Trace.disabled) ?(show_progress = false) spec ~model_steps
    ~sim_steps ~protocol ~replication ~engine ~with_sim ~p99 ~out_dir =
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
          (fun () ->
            Figures.sim_summaries_stats ~protocol ?replication ~engine spec
              ~steps:sim_steps)
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
  ensure_dir out_dir;
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

let cmd_list () =
  print_endline "figures:";
  List.iter
    (fun s -> Printf.printf "  %-6s %s\n" s.Figures.id s.Figures.title)
    Figures.all;
  print_endline "ablations:";
  List.iter (fun a -> Printf.printf "  %-16s %s\n" a.Ablations.id a.Ablations.description)
    Ablations.all

let cmd_fig id scenario model_steps sim_steps full no_sim p99 out_dir opts topts =
  Cli.guard @@ fun () ->
  Result.map
    (fun spec ->
      let tracer = Cli.tracer_of_opts ~progress:true topts in
      run_figure spec ~tracer ~show_progress:(Cli.progress_wanted topts) ~model_steps
        ~sim_steps
        ~protocol:(Cli.protocol_of_opts ~base:(sim_protocol full) opts)
        ~replication:(Cli.replication_of_opts opts)
        ~engine:(Cli.engine_of_opts ~tracer opts)
        ~with_sim:(not no_sim) ~p99 ~out_dir;
      Cli.write_trace topts tracer;
      0)
    (resolve_spec ~scenario ~id)

let cmd_all model_steps sim_steps full no_sim p99 out_dir opts topts =
  Cli.guard @@ fun () ->
  let tracer = Cli.tracer_of_opts ~progress:true topts in
  let protocol = Cli.protocol_of_opts ~base:(sim_protocol full) opts in
  let replication = Cli.replication_of_opts opts in
  let engine = Cli.engine_of_opts ~tracer opts in
  List.iter
    (fun spec ->
      run_figure spec ~tracer ~show_progress:(Cli.progress_wanted topts) ~model_steps
        ~sim_steps ~protocol ~replication ~engine ~with_sim:(not no_sim) ~p99 ~out_dir)
    Figures.all;
  Cli.write_trace topts tracer;
  Ok 0

let cmd_errors full =
  let table = Table.create ~columns:[ "figure"; "curve"; "light-load error %" ] in
  List.iter
    (fun spec ->
      if List.exists (fun c -> c.Figures.simulate) spec.Figures.curves then
        List.iter
          (fun (label, err) ->
            Table.add_row table
              [ spec.Figures.id; label; Printf.sprintf "%.1f" (100. *. err) ])
          (Figures.light_load_error ~protocol:(sim_protocol full) spec))
    Figures.all;
  Table.print table;
  print_endline "(paper, Section 4: \"at light traffic the model differs from simulation by about 4 to 8 percent\")";
  0

let cmd_ablate id steps full =
  match Ablations.find id with
  | None ->
      prerr_endline ("unknown ablation: " ^ id);
      1
  | Some a ->
      Printf.printf "== ablation %s: %s ==\n%!" a.Ablations.id a.Ablations.description;
      Table.print (a.Ablations.run ~steps ~protocol:(sim_protocol full));
      0

let cmd_tables () =
  let t1 = Table.create ~columns:[ "org"; "N"; "C"; "m"; "n_c"; "cluster depths" ] in
  List.iter
    (fun (name, sys) ->
      let depths =
        Array.to_list sys.Fatnet_model.Params.clusters
        |> List.map (fun c -> string_of_int c.Fatnet_model.Params.tree_depth)
        |> String.concat ","
      in
      Table.add_row t1
        [
          name;
          string_of_int (Fatnet_model.Params.total_nodes sys);
          string_of_int (Fatnet_model.Params.cluster_count sys);
          string_of_int sys.Fatnet_model.Params.m;
          string_of_int sys.Fatnet_model.Params.icn2_depth;
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
          Printf.sprintf "%g" n.Fatnet_model.Params.bandwidth;
          Printf.sprintf "%g" n.Fatnet_model.Params.network_latency;
          Printf.sprintf "%g" n.Fatnet_model.Params.switch_latency;
        ])
    [ ("Net.1 (ICN1, ICN2)", Fatnet_model.Presets.net1); ("Net.2 (ECN1)", Fatnet_model.Presets.net2) ];
  print_endline "Table 2: network characteristics";
  Table.print t2;
  0

(* `experiments export fig3` regenerates the checked-in scenario
   files: the exported file is the figure's base scenario, so loading
   it back reproduces the preset spec exactly. *)
let cmd_export id out =
  Cli.guard @@ fun () ->
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

(* `experiments sweep FILE` runs an arbitrary scenario's load axis
   through the orchestrator — any new workload is a new .scn file,
   not a new code path. *)
let cmd_sweep file scenario out_dir opts mopts topts =
  Cli.guard @@ fun () ->
  let ( let* ) = Result.bind in
  let* file =
    match (file, scenario) with
    | Some f, _ | None, Some f -> Ok f
    | None, None -> Error "a scenario FILE (positional or --scenario) is required"
  in
  Result.map
    (fun scn ->
      Printf.printf "== scenario %s ==\n%!"
        (if scn.Scenario.name = "" then file else scn.Scenario.name);
      let tracer = Cli.tracer_of_opts ~progress:true topts in
      let metrics = Cli.metrics_registry mopts in
      Metrics.set_meta metrics "command" "experiments sweep";
      Metrics.set_meta metrics "scenario" file;
      Metrics.set_meta metrics "scenario_name" scn.Scenario.name;
      Metrics.set_meta metrics "scenario_hash" (Scenario.hash scn);
      (* The analytical side of the sweep: evaluating the saturation
         rate under the ambient registry records the solver's
         bisection/bracketing counters into the same snapshot as the
         simulator and scheduler series.  The ambient tracer makes
         the same solve contribute its solver spans. *)
      if Metrics.is_enabled metrics then
        Metrics.with_ambient metrics (fun () ->
            Trace.with_ambient tracer (fun () ->
                ignore (Scenario.saturation_rate scn)));
      let lambdas = Scenario.lambdas scn in
      let progress =
        if Cli.progress_wanted topts then
          Some (Progress.create ~total:(List.length lambdas) tracer)
        else None
      in
      let outcome =
        Fun.protect
          ~finally:(fun () -> Option.iter Progress.finish progress)
          (fun () ->
            Sweep_engine.run_sweep ~config:(Cli.engine_of_opts ~tracer ~metrics opts) scn)
      in
      let results = outcome.Sweep_engine.results in
      print_sweep_stats outcome.Sweep_engine.stats;
      List.iter
        (fun f ->
          Log.warn "quarantined: point %d%s after %d attempt%s: %s"
            f.Sweep_engine.index
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
      (* Quarantined points keep their table row (marked [quar.], to
         keep them distinct from [sat.], the NaN of a saturated model
         cell) so the load axis stays aligned; the CSV carries
         survivors only. *)
      let cell x = if Float.is_finite x then Printf.sprintf "%.6g" x else "sat." in
      (* One workspace for both the table's model column and the CSV
         model series. *)
      let ws = Scenario.evaluator scn in
      (* The model p99 reuses [ws]: one kernel evaluation plus the
         tail fit per point. *)
      let model_p99 lambda_g = Fatnet_model.Eval.quantile ws ~lambda_g ~q:0.99 in
      List.iteri
        (fun i lambda_g ->
          let model = Fatnet_model.Eval.mean_into ws ~lambda_g in
          match results.(i) with
          | Some r ->
              Table.add_float_row table
                [
                  lambda_g;
                  r.Sweep_engine.summary.Fatnet_stats.Summary.mean;
                  r.Sweep_engine.summary.Fatnet_stats.Summary.p99;
                  r.Sweep_engine.ci_half_width;
                  float_of_int r.Sweep_engine.replications;
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
      ensure_dir out_dir;
      let name = if scn.Scenario.name = "" then "sweep" else scn.Scenario.name in
      let path = Filename.concat out_dir (name ^ ".csv") in
      let surviving project =
        List.concat
          (List.mapi
             (fun i l ->
               match results.(i) with Some r -> [ (l, project r) ] | None -> [])
             lambdas)
      in
      Series.write_csv ~path
        [
          Series.create ~name:"sim"
            ~points:(surviving (fun r -> r.Sweep_engine.summary.Fatnet_stats.Summary.mean));
          Series.create ~name:"sim p99"
            ~points:(surviving (fun r -> r.Sweep_engine.summary.Fatnet_stats.Summary.p99));
          Series.create ~name:"model"
            ~points:(List.map (fun l -> (l, Fatnet_model.Eval.mean_into ws ~lambda_g:l)) lambdas);
          Series.create ~name:"model p99"
            ~points:(List.map (fun l -> (l, model_p99 l)) lambdas);
        ];
      Printf.printf "wrote %s\n%!" path;
      Cli.write_metrics mopts metrics;
      Cli.write_trace topts tracer;
      if outcome.Sweep_engine.quarantined = [] then 0 else 3)
    (Scenario.load file)

(* `experiments report [FILE]` re-renders a saved metrics snapshot —
   by default as the human table/bar view, or back through the
   machine formats with --format. *)
let cmd_report file format =
  Cli.guard @@ fun () ->
  let path = Option.value file ~default:Cli.default_metrics_file in
  if not (Sys.file_exists path) then
    Error
      (Printf.sprintf "%s: no metrics snapshot found (run a command with --metrics first)" path)
  else begin
    let ic = open_in_bin path in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Metrics.Snapshot.of_json body with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok snapshot ->
        print_string
          (Cli.render_metrics
             { Cli.metrics_file = Some path; metrics_format = format }
             snapshot);
        Ok 0
  end

(* The CI smoke entry point: `experiments --quick fig3` (or
   `--quick --scenario FILE`) runs one figure end-to-end (model +
   simulation + CSV) with a protocol small enough for a cold CI
   runner. *)
let quick_opts opts = { opts with Cli.precision = 0.1; min_reps = 2; max_reps = 4 }

let quick_protocol_smoke =
  { Scenario.quick_protocol with Scenario.warmup = 100; measured = 1_000; drain = 100 }

let cmd_default quick fig scenario p99 out_dir opts topts =
  match (fig, scenario) with
  | None, None ->
      cmd_list ();
      0
  | _ ->
      Cli.guard @@ fun () ->
      Result.map
        (fun spec ->
          let protocol, opts =
            if quick then (quick_protocol_smoke, quick_opts opts)
            else (sim_protocol false, opts)
          in
          let protocol = Cli.protocol_of_opts ~base:protocol opts in
          let model_steps = if quick then 16 else 24 in
          let sim_steps = if quick then 3 else 6 in
          let tracer = Cli.tracer_of_opts ~progress:true topts in
          run_figure spec ~tracer ~show_progress:(Cli.progress_wanted topts) ~model_steps
            ~sim_steps ~protocol
            ~replication:(Cli.replication_of_opts opts)
            ~engine:(Cli.engine_of_opts ~tracer opts)
            ~with_sim:true ~p99 ~out_dir;
          Cli.write_trace topts tracer;
          0)
        (resolve_spec ~scenario ~id:fig)

(* `experiments timeline [FILE]` renders a --trace span file as the
   human timeline view: top-N slowest spans with self time, then the
   by-name aggregate. *)
let cmd_timeline file top =
  Cli.guard @@ fun () ->
  let path = Option.value file ~default:Cli.default_trace_file in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: no trace found (run a command with --trace first)" path)
  else begin
    let ic = open_in_bin path in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Trace.spans_of_chrome_json body with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok spans ->
        print_string (Fatnet_report.Trace_report.render ~top spans);
        Ok 0
  end

open Cmdliner

let model_steps =
  Arg.(value & opt int 24 & info [ "model-steps" ] ~doc:"Model points per curve.")

let sim_steps = Arg.(value & opt int 6 & info [ "sim-steps" ] ~doc:"Simulation points per curve.")

let full =
  Arg.(
    value & flag
    & info [ "full" ]
        ~doc:"Use the paper's full protocol (10k/100k/10k messages) instead of the quick one.")

let no_sim = Arg.(value & flag & info [ "no-sim" ] ~doc:"Skip simulation series.")

let p99_flag =
  Arg.(
    value & flag
    & info [ "p99" ]
        ~doc:
          "Also emit the figure's tail family: predicted (model) vs simulated p99 latency, \
           written as FIGURE-p99.csv next to the mean CSV.  The simulated p99 is a \
           projection of the same sweep (no extra simulation cost).")

let out_dir =
  Arg.(value & opt string "results" & info [ "out" ] ~doc:"Directory for CSV output.")

(* A sweep names its CSV after the scenario, so it writes apart from
   the committed figure CSVs in results/: sweeping a copy of
   examples/fig5.scn must not replace results/fig5.csv. *)
let sweep_out_dir =
  Arg.(
    value & opt string "results/sweep"
    & info [ "out" ] ~doc:"Directory for the sweep's CSV output (default results/sweep).")

let steps = Arg.(value & opt int 6 & info [ "steps" ] ~doc:"Points per ablation setting.")

let fig_id = Arg.(value & pos 0 (some string) None & info [] ~docv:"FIGURE")
let ablate_id = Arg.(required & pos 0 (some string) None & info [] ~docv:"ABLATION")
let export_id = Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE")
let sweep_file = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE")

let report_file =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:(Printf.sprintf "Metrics snapshot to render (default %s)." Cli.default_metrics_file))

let report_format =
  Arg.(
    value
    & opt
        (enum
           [
             ("table", Cli.Metrics_table);
             ("json", Cli.Metrics_json);
             ("prometheus", Cli.Metrics_prometheus);
           ])
        Cli.Metrics_table
    & info [ "format"; "metrics-format" ] ~docv:"FMT"
        ~doc:"Output format: $(b,table) (default), $(b,json), or $(b,prometheus).")

let export_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (default examples/FIGURE.scn).")

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List figures and ablations")
    Term.(const (fun () -> cmd_list (); 0) $ const ())

let fig_cmd =
  Cmd.v (Cmd.info "fig" ~doc:"Regenerate one figure (by id or from --scenario)")
    Term.(
      const cmd_fig $ fig_id $ Cli.scenario_file $ model_steps $ sim_steps $ full $ no_sim
      $ p99_flag $ out_dir $ Cli.sweep_opts $ Cli.trace_opts)

let all_cmd =
  Cmd.v (Cmd.info "all" ~doc:"Regenerate every figure")
    Term.(
      const cmd_all $ model_steps $ sim_steps $ full $ no_sim $ p99_flag $ out_dir
      $ Cli.sweep_opts $ Cli.trace_opts)

let errors_cmd =
  Cmd.v (Cmd.info "errors" ~doc:"Light-load model-vs-simulation error (Section 4 claim)")
    Term.(const cmd_errors $ full)

let ablate_cmd =
  Cmd.v (Cmd.info "ablate" ~doc:"Run an ablation study")
    Term.(const cmd_ablate $ ablate_id $ steps $ full)

let tables_cmd =
  Cmd.v (Cmd.info "tables" ~doc:"Print Tables 1 and 2")
    Term.(const (fun () -> cmd_tables ()) $ const ())

let export_cmd =
  Cmd.v (Cmd.info "export" ~doc:"Write a figure's base scenario to a .scn file")
    Term.(const cmd_export $ export_id $ export_out)

let sweep_cmd =
  Cmd.v (Cmd.info "sweep" ~doc:"Run a scenario file's load axis through the sweep engine")
    Term.(
      const cmd_sweep $ sweep_file $ Cli.scenario_file $ sweep_out_dir $ Cli.sweep_opts
      $ Cli.metrics_opts $ Cli.trace_opts)

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render a --metrics snapshot (histograms as bars, counters as a table)")
    Term.(const cmd_report $ report_file $ report_format)

let timeline_file =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:(Printf.sprintf "Chrome trace-event file to render (default %s)." Cli.default_trace_file))

let timeline_top =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"N" ~doc:"How many slowest spans to list (default 10).")

let timeline_cmd =
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Render a --trace span file (slowest spans with self time, by-name aggregate)")
    Term.(const cmd_timeline $ timeline_file $ timeline_top)

let quick_flag =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"With a FIGURE argument: smoke the figure with a tiny protocol (CI entry point).")

let () =
  let info = Cmd.info "experiments" ~doc:"Reproduce the paper's figures and tables" in
  let default =
    Term.(
      const cmd_default $ quick_flag $ fig_id $ Cli.scenario_file $ p99_flag $ out_dir
      $ Cli.sweep_opts $ Cli.trace_opts)
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            list_cmd;
            fig_cmd;
            all_cmd;
            errors_cmd;
            ablate_cmd;
            tables_cmd;
            export_cmd;
            sweep_cmd;
            report_cmd;
            timeline_cmd;
          ]))

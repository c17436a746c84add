module Params = Fatnet_model.Params
module Presets = Fatnet_model.Presets
module Scenario = Fatnet_scenario.Scenario
module Sweep_engine = Fatnet_experiments.Sweep_engine
module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace
module Log = Fatnet_obs.Log
open Cmdliner

let guard body =
  match body () with
  | Ok code -> code
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      2
  | exception (Invalid_argument msg | Failure msg) ->
      prerr_endline ("error: " ^ msg);
      2
  | exception Sweep_engine.Failures fs ->
      (* One friendly line per failed sweep point, through the
         engine's registered printer. *)
      List.iter
        (fun f -> prerr_endline ("error: " ^ Printexc.to_string (Sweep_engine.Point_failure f)))
        fs;
      1
  | exception Sys_error msg ->
      prerr_endline ("error: " ^ msg);
      1

(* ---- scenario selection ---- *)

let scenario_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"FILE"
        ~doc:
          "Read the experiment description from a .scn scenario file; the other \
           system/message flags override its fields.")

type system_opts = {
  org : string option;
  clusters : int option;
  depth : int option;
  arity : int option;
}

let system_opts =
  let org =
    Arg.(
      value
      & opt (some string) None
      & info [ "org" ] ~doc:"Table-1 organization: 1120 or 544. Overrides the homogeneous flags.")
  in
  let clusters =
    Arg.(value & opt (some int) None & info [ "clusters" ] ~doc:"Cluster count (homogeneous).")
  in
  let depth =
    Arg.(value & opt (some int) None & info [ "depth" ] ~doc:"Tree depth n_i (homogeneous).")
  in
  let arity =
    Arg.(value & opt (some int) None & info [ "arity" ] ~doc:"Switch arity m (homogeneous).")
  in
  let make org clusters depth arity = { org; clusters; depth; arity } in
  Term.(const make $ org $ clusters $ depth $ arity)

let system_given o =
  o.org <> None || o.clusters <> None || o.depth <> None || o.arity <> None

let build_system o =
  match o.org with
  | Some "1120" -> Ok Presets.org_1120
  | Some "544" -> Ok Presets.org_544
  | Some other -> Error (Printf.sprintf "unknown organization %S (use 1120 or 544)" other)
  | None -> (
      let clusters = Option.value o.clusters ~default:4 in
      let tree_depth = Option.value o.depth ~default:2 in
      let m = Option.value o.arity ~default:4 in
      match
        Params.homogeneous ~m ~tree_depth ~clusters ~icn1:Presets.net1 ~ecn1:Presets.net2
          ~icn2:Presets.net1
      with
      | s -> Ok s
      | exception Invalid_argument msg -> Error msg)

type message_opts = { m_flits : int option; flit_bytes : float option }

let message_opts =
  let m_flits =
    Arg.(
      value & opt (some int) None & info [ "m-flits" ] ~doc:"Message length in flits (M).")
  in
  let flit_bytes =
    Arg.(
      value & opt (some float) None & info [ "flit-bytes" ] ~doc:"Flit size in bytes (d_m).")
  in
  let make m_flits flit_bytes = { m_flits; flit_bytes } in
  Term.(const make $ m_flits $ flit_bytes)

let resolve ?(default_load = Scenario.Fixed 1e-4)
    ?(default_protocol = Scenario.default_protocol) ~scenario ~system ~message () =
  let ( let* ) = Result.bind in
  let* base =
    match scenario with
    | Some path -> Scenario.load path
    | None -> (
        let* sys = build_system system in
        let msg =
          Presets.message
            ~m_flits:(Option.value message.m_flits ~default:32)
            ~d_m_bytes:(Option.value message.flit_bytes ~default:256.)
        in
        match
          Scenario.make ~system:sys ~message:msg ~protocol:default_protocol
            ~load:default_load ()
        with
        | s -> Ok s
        | exception Invalid_argument msg -> Error msg)
  in
  let* base =
    if scenario <> None && system_given system then
      let* sys = build_system system in
      Ok { base with Scenario.system = sys }
    else Ok base
  in
  let base =
    match message.m_flits with
    | Some f ->
        { base with Scenario.message = { base.Scenario.message with Params.length_flits = f } }
    | None -> base
  in
  let base =
    match message.flit_bytes with
    | Some d ->
        { base with Scenario.message = { base.Scenario.message with Params.flit_bytes = d } }
    | None -> base
  in
  match Scenario.validate base with
  | Ok () -> Ok base
  | Error e -> Error (match scenario with Some path -> path ^ ": " ^ e | None -> e)

(* ---- parallelism ---- *)

(* The one spelling of the worker-count flag, shared by every binary
   (there is no [--jobs]): sweep scheduling and model-evaluation
   pools both read it, and the default everywhere is the runtime's
   recommended domain count. *)
let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel work (sweep scheduling, model evaluation pools).  \
           Default: the runtime's recommended domain count.")

let resolve_domains = function
  | Some d when d >= 1 -> Ok d
  | Some d -> Error (Printf.sprintf "--domains: %d is not a positive domain count" d)
  | None -> Ok (Fatnet_model.Eval.Pool.recommended_domains ())

(* ---- sweep orchestration flags ---- *)

type sweep_opts = {
  domains : int option;
  no_cache : bool;
  cache_dir : string;
  precision : float;
  min_reps : int;
  max_reps : int;
  seed : int64;
  target : Scenario.target;
  retries : int;
  fail_fast : bool;
  inject_faults : string option;
}

(* `--target mean` / `--target quantile:p99` (also accepts the raw
   probability, `quantile:0.99`).  Only the fixed quantile ladder is
   accepted — those are the only quantiles the summaries carry. *)
let target_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "mean" -> Ok Scenario.Mean
    | t when String.length t > 9 && String.sub t 0 9 = "quantile:" -> (
        let q = String.sub t 9 (String.length t - 9) in
        let p =
          match q with
          | "p50" -> Some 0.5
          | "p90" -> Some 0.9
          | "p99" -> Some 0.99
          | "p999" -> Some 0.999
          | _ -> (
              match float_of_string_opt q with
              | Some f when List.mem f [ 0.5; 0.9; 0.99; 0.999 ] -> Some f
              | _ -> None)
        in
        match p with
        | Some p -> Ok (Scenario.Quantile p)
        | None ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown quantile %S (expected p50, p90, p99, p999 or the probability \
                    0.5/0.9/0.99/0.999)"
                   q)))
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "expected `mean` or `quantile:PXX` (e.g. quantile:p99), got %S" s))
  in
  let print ppf = function
    | Scenario.Mean -> Format.pp_print_string ppf "mean"
    | Scenario.Quantile q -> Format.fprintf ppf "quantile:%g" q
  in
  Arg.conv (parse, print)

let sweep_opts =
  let domains = domains_arg in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Recompute every point; do not read or write the point cache.")
  in
  let cache_dir =
    Arg.(
      value
      & opt string Fatnet_experiments.Point_cache.default_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Point cache directory.")
  in
  let precision =
    Arg.(
      value & opt float 0.
      & info [ "precision" ] ~docv:"REL"
          ~doc:
            "Enable CI-adaptive replications: run independently seeded replications per point \
             until the 95% CI half-width over replication means is below REL of the mean \
             (subject to --min-reps/--max-reps).  0 disables (one run per point).")
  in
  let min_reps =
    Arg.(value & opt int 2 & info [ "min-reps" ] ~doc:"Replications before any stopping test.")
  in
  let max_reps = Arg.(value & opt int 8 & info [ "max-reps" ] ~doc:"Replication cap.") in
  let seed =
    Arg.(
      value
      & opt int64 Scenario.default_protocol.Scenario.seed
      & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed for every sweep point.")
  in
  let target =
    Arg.(
      value
      & opt target_conv Scenario.Mean
      & info [ "target" ] ~docv:"STAT"
          ~doc:
            "Statistic the CI-adaptive stopping rule converges (with --precision): $(b,mean) \
             (default) or $(b,quantile:p50)/$(b,quantile:p90)/$(b,quantile:p99)/\
             $(b,quantile:p999) — the Student-t interval is then taken over the \
             per-replication P\xC2\xB2 estimates of that quantile.")
  in
  let retries =
    Arg.(
      value
      & opt int Sweep_engine.default_config.Sweep_engine.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra attempts per failing sweep point before it is quarantined (0 disables \
             retries).")
  in
  let fail_fast =
    Arg.(
      value & flag
      & info [ "fail-fast" ]
          ~doc:
            "Abort the sweep on the first point that exhausts its retries instead of \
             quarantining it and completing the remaining points.")
  in
  let inject_faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject-faults" ] ~docv:"SPEC"
          ~doc:
            "Testing only: deterministically inject failures at the named sites, e.g. \
             $(b,seed=42,point_exec=0.5,cache_store=1).  Sites: point_exec, cache_find, \
             cache_store, tmp_rename; values are failure probabilities in [0,1].")
  in
  let make domains no_cache cache_dir precision min_reps max_reps seed target retries
      fail_fast inject_faults =
    {
      domains;
      no_cache;
      cache_dir;
      precision;
      min_reps;
      max_reps;
      seed;
      target;
      retries;
      fail_fast;
      inject_faults;
    }
  in
  Term.(
    const make $ domains $ no_cache $ cache_dir $ precision $ min_reps $ max_reps $ seed
    $ target $ retries $ fail_fast $ inject_faults)

let engine_of_opts ?trace ?(tracer = Trace.disabled) ?(metrics = Metrics.disabled) opts =
  let faults =
    match opts.inject_faults with
    | None -> Fatnet_experiments.Fault.none
    | Some spec -> (
        match Fatnet_experiments.Fault.of_spec spec with
        | Ok plan -> plan
        | Error msg -> failwith ("--inject-faults: " ^ msg))
  in
  {
    Sweep_engine.domains = opts.domains;
    cache =
      (if opts.no_cache then Sweep_engine.No_cache else Sweep_engine.Cache_dir opts.cache_dir);
    trace;
    tracer;
    metrics;
    retries = max 0 opts.retries;
    fail_fast = opts.fail_fast;
    faults;
    (* One in-memory memo per CLI invocation: commands that run many
       sweeps over one engine config ([experiments all], figure +
       ablation passes) serve repeated points with a hashtable probe.
       [--no-cache] means "recompute every point", so it turns the
       memo off too. *)
    memo =
      (if opts.no_cache then None else Some (Fatnet_numerics.Memo.create ()));
  }

let replication_of_opts opts =
  if opts.precision > 0. then
    Some
      {
        Scenario.target_rel = opts.precision;
        confidence = 0.95;
        min_reps = opts.min_reps;
        max_reps = opts.max_reps;
        target = opts.target;
      }
  else None

let protocol_of_opts ~base opts = { base with Scenario.seed = opts.seed }

(* ---- telemetry flags ---- *)

type metrics_format = Metrics_json | Metrics_prometheus | Metrics_table

type metrics_opts = { metrics_file : string option; metrics_format : metrics_format }

let default_metrics_file = "results/metrics.json"

let metrics_opts =
  let file =
    Arg.(
      value
      & opt ~vopt:(Some default_metrics_file) (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf
               "Collect run telemetry (channel utilisation, solver iterations, scheduler and \
                cache statistics) and write it to FILE ($(docv) defaults to %s when the flag \
                is given bare; use - for stdout).  Without this flag instrumentation is \
                compiled to no-ops."
               default_metrics_file))
  in
  let format =
    Arg.(
      value
      & opt
          (enum
             [
               ("json", Metrics_json);
               ("prometheus", Metrics_prometheus);
               ("table", Metrics_table);
             ])
          Metrics_json
      & info [ "metrics-format" ] ~docv:"FMT"
          ~doc:
            "Telemetry output format: $(b,json) (schema-versioned snapshot, re-readable by \
             'experiments report'), $(b,prometheus) (text exposition format), or $(b,table) \
             (the human view).")
  in
  let make metrics_file metrics_format = { metrics_file; metrics_format } in
  Term.(const make $ file $ format)

let metrics_registry opts =
  match opts.metrics_file with None -> Metrics.disabled | Some _ -> Metrics.create ()

let render_metrics opts snapshot =
  match opts.metrics_format with
  | Metrics_json -> Metrics.Snapshot.to_json snapshot
  | Metrics_prometheus -> Metrics.Snapshot.to_prometheus snapshot
  | Metrics_table -> Fatnet_report.Metrics_report.render snapshot

let write_metrics opts registry =
  match opts.metrics_file with
  | None -> ()
  | Some path ->
      let body = render_metrics opts (Metrics.snapshot registry) in
      if path = "-" then print_string body
      else begin
        Fatnet_experiments.Fs_util.mkdir_p (Filename.dirname path);
        let oc = open_out path in
        output_string oc body;
        close_out oc;
        Log.info "metrics: wrote %s" path
      end

(* ---- tracing flags: --trace / --quiet ---- *)

type trace_opts = { trace_file : string option; quiet : bool }

let default_trace_file = "results/trace.json"

let trace_opts =
  let file =
    Arg.(
      value
      & opt ~vopt:(Some default_trace_file) (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            (Printf.sprintf
               "Record hierarchical causal spans (sweep points, attempts, replications, \
                simulator phases, solver searches, cache probes) and write Chrome \
                trace-event JSON to FILE ($(docv) defaults to %s when the flag is given \
                bare; use - for stdout).  Load it in Perfetto / chrome://tracing, or \
                render it with 'experiments timeline'.  Tracing observes only: results \
                and cache entries are bit-identical to an untraced run."
               default_trace_file))
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:
            "Suppress informational stderr output: no live progress line, no info lines; \
             only errors print.")
  in
  let make trace_file quiet = { trace_file; quiet } in
  Term.(const make $ file $ quiet)

let apply_quiet opts = if opts.quiet then Log.set_threshold Log.Error

let progress_wanted opts = (not opts.quiet) && Unix.isatty Unix.stderr

let tracer_of_opts ?(progress = false) opts =
  apply_quiet opts;
  if opts.trace_file <> None || (progress && progress_wanted opts) then Trace.create ()
  else Trace.disabled

let write_trace opts tracer =
  match opts.trace_file with
  | None -> ()
  | Some path ->
      let body = Trace.to_chrome_json tracer in
      if path = "-" then print_string body
      else begin
        Fatnet_experiments.Fs_util.mkdir_p (Filename.dirname path);
        let oc = open_out path in
        output_string oc body;
        close_out oc;
        Log.info "trace: wrote %s" path
      end

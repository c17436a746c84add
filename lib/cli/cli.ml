module Params = Fatnet_model.Params
module Presets = Fatnet_model.Presets
module Scenario = Fatnet_scenario.Scenario
module Destination = Fatnet_workload.Destination
module Sweep_engine = Fatnet_experiments.Sweep_engine
module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace
module Log = Fatnet_obs.Log
open Cmdliner

let ( let* ) = Result.bind

(* ---- exit codes and the error boundary ---- *)

let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 1 ~doc:"on a runtime failure: I/O, a socket, a failed sweep point.";
      info 2 ~doc:"on a usage or validation error, a flag that cannot take effect included.";
      info 3 ~doc:"when a sweep finished with quarantined points.";
      info cli_error ~doc:"on a command-line parse error.";
      info internal_error ~doc:"on an uncaught exception.";
    ]

let guard body =
  let fail code msg =
    prerr_endline ("error: " ^ msg);
    code
  in
  match body () with
  | Ok code -> code
  | Error msg -> fail 2 msg
  | exception (Invalid_argument msg | Failure msg) -> fail 2 msg
  | exception Sweep_engine.Failures fs ->
      (* One line per failed sweep point, through the engine's
         registered printer. *)
      List.iter
        (fun f -> prerr_endline ("error: " ^ Printexc.to_string (Sweep_engine.Point_failure f)))
        fs;
      1
  | exception Sys_error msg -> fail 1 msg
  | exception Unix.Unix_error (e, call, arg) ->
      fail 1
        (Printf.sprintf "%s%s: %s" call (if arg = "" then "" else " " ^ arg) (Unix.error_message e))

let command name ~doc term = Cmd.v (Cmd.info name ~doc ~exits) Term.(const guard $ term)

let with_address address f =
  try f () with Unix.Unix_error (e, call, "") -> raise (Unix.Unix_error (e, call, address))

(* ---- scenario flags ---- *)

let scenario_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"FILE"
        ~doc:
          "Read the experiment description from a .scn scenario file; the other flags \
           replace only the fields they name.")

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
      & info [ "org" ] ~doc:"Table-1 organization: 1120 or 544 (excludes the homogeneous flags).")
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

let build_system o =
  let homogeneous = o.clusters <> None || o.depth <> None || o.arity <> None in
  match o.org with
  | Some _ when homogeneous -> Error "--org names a whole system: drop --clusters, --depth and --arity"
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

type pattern_opts = {
  hotspot : int option;
  hotspot_fraction : float option;
  p_local : float option;
}

let pattern_opts =
  let hotspot =
    Arg.(value & opt (some int) None & info [ "hotspot" ] ~docv:"NODE" ~doc:"Hot destination node id.")
  in
  let hotspot_fraction =
    Arg.(
      value
      & opt (some float) None
      & info [ "hotspot-fraction" ] ~docv:"F"
          ~doc:"Hotspot traffic fraction (default 0.1 for a new hotspot pattern).")
  in
  let p_local =
    Arg.(
      value
      & opt (some float) None
      & info [ "p-local" ] ~docv:"P"
          ~doc:"Probability a message stays in its cluster (locality pattern).")
  in
  let make hotspot hotspot_fraction p_local = { hotspot; hotspot_fraction; p_local } in
  Term.(const make $ hotspot $ hotspot_fraction $ p_local)

type replication_opts = {
  precision : float option;
  min_reps : int option;
  max_reps : int option;
  target : Scenario.target option;
}

(* `--target mean` / `--target quantile:p99` (also accepts the raw
   probability, `quantile:0.99`).  Only the fixed quantile ladder is
   accepted — those are the only quantiles the summaries carry. *)
let target_conv =
  let ladder = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ] in
  let parse s =
    match String.lowercase_ascii s with
    | "mean" -> Ok Scenario.Mean
    | t when String.starts_with ~prefix:"quantile:" t -> (
        let q = String.sub t 9 (String.length t - 9) in
        match (List.assoc_opt q ladder, float_of_string_opt q) with
        | Some p, _ -> Ok (Scenario.Quantile p)
        | None, Some p when List.exists (fun (_, l) -> l = p) ladder -> Ok (Scenario.Quantile p)
        | _ ->
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

let replication_opts =
  let precision =
    Arg.(
      value
      & opt (some float) None
      & info [ "precision" ] ~docv:"REL"
          ~doc:
            "CI-adaptive replications: run independently seeded replications per point \
             until the 95% CI half-width over replication means is below REL of the mean \
             (within --min-reps/--max-reps).  0 means one run per point.")
  in
  let min_reps =
    Arg.(
      value
      & opt (some int) None
      & info [ "min-reps" ] ~docv:"N" ~doc:"Replications before any stopping test (default 2).")
  in
  let max_reps =
    Arg.(
      value & opt (some int) None & info [ "max-reps" ] ~docv:"N" ~doc:"Replication cap (default 8).")
  in
  let target =
    Arg.(
      value
      & opt (some target_conv) None
      & info [ "target" ] ~docv:"STAT"
          ~doc:
            "Statistic the CI-adaptive stopping rule converges: $(b,mean) (default) or \
             $(b,quantile:p50)/$(b,quantile:p90)/$(b,quantile:p99)/$(b,quantile:p999) — \
             the Student-t interval is then taken over the per-replication P\xC2\xB2 \
             estimates of that quantile.")
  in
  let make precision min_reps max_reps target = { precision; min_reps; max_reps; target } in
  Term.(const make $ precision $ min_reps $ max_reps $ target)

let lambda =
  Arg.(
    value
    & opt (some float) None
    & info [ "lambda" ] ~docv:"RATE" ~doc:"Pin the load to this traffic generation rate λ_g.")

let seed = Arg.(value & opt (some int64) None & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed.")

let quick =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Run 100/1000/100 messages (warm-up/measured/drain): the CI smoke.")

let full =
  Arg.(
    value & flag
    & info [ "full" ] ~doc:"Run the paper's 10000/100000/10000 messages (warm-up/measured/drain).")

let store_and_forward =
  Arg.(value & flag & info [ "store-and-forward" ] ~doc:"Store-and-forward C/Ds (ablation).")

(* ---- the override rule ---- *)

type overrides = {
  system : system_opts;
  message : message_opts;
  lambda : float option;
  seed : int64 option;
  sizes : Scenario.protocol option;
  store_and_forward : bool;
  pattern : pattern_opts;
  replication : replication_opts;
}

let none =
  {
    system = { org = None; clusters = None; depth = None; arity = None };
    message = { m_flits = None; flit_bytes = None };
    lambda = None;
    seed = None;
    sizes = None;
    store_and_forward = false;
    pattern = { hotspot = None; hotspot_fraction = None; p_local = None };
    replication = { precision = None; min_reps = None; max_reps = None; target = None };
  }

let smoke_sizes =
  { Scenario.quick_protocol with Scenario.warmup = 100; measured = 1_000; drain = 100 }

let apply_pattern o (base : Destination.t) =
  match (o.hotspot, o.hotspot_fraction, o.p_local, base) with
  | Some _, _, Some _, _ -> Error "--hotspot and --p-local name two traffic patterns: give one"
  | None, Some _, Some _, _ -> Error "--hotspot-fraction cannot take effect with --p-local"
  | Some node, fraction, None, _ ->
      let default = match base with Destination.Hotspot h -> h.fraction | _ -> 0.1 in
      Ok (Destination.Hotspot { node; fraction = Option.value fraction ~default })
  | None, Some fraction, None, Destination.Hotspot h -> Ok (Destination.Hotspot { h with fraction })
  | None, Some _, None, _ ->
      Error "--hotspot-fraction needs --hotspot or a hotspot pattern in the scenario"
  | None, None, Some p_local, _ -> Ok (Destination.Local { p_local })
  | None, None, None, _ -> Ok base

let apply_replication r (base : Scenario.replication option) =
  let rest = r.min_reps <> None || r.max_reps <> None || r.target <> None in
  match (r.precision, base) with
  | Some p, _ when p <= 0. ->
      if rest then Error "--min-reps, --max-reps and --target cannot take effect with --precision 0"
      else Ok None
  | None, None ->
      if rest then
        Error "--min-reps, --max-reps and --target need --precision or a [replication] section"
      else Ok None
  | precision, base ->
      let b =
        Option.value base
          ~default:
            { Scenario.target_rel = 0.; confidence = 0.95; min_reps = 2; max_reps = 8; target = Mean }
      in
      let ( |? ) given field = Option.value given ~default:field in
      Ok
        (Some
           {
             b with
             Scenario.target_rel = precision |? b.Scenario.target_rel;
             min_reps = r.min_reps |? b.Scenario.min_reps;
             max_reps = r.max_reps |? b.Scenario.max_reps;
             target = r.target |? b.Scenario.target;
           })

let apply o (s : Scenario.t) =
  let* system =
    if o.system <> none.system then build_system o.system else Ok s.Scenario.system
  in
  let m = s.Scenario.message in
  let message =
    {
      Params.length_flits = Option.value o.message.m_flits ~default:m.Params.length_flits;
      flit_bytes = Option.value o.message.flit_bytes ~default:m.Params.flit_bytes;
    }
  in
  let p = s.Scenario.protocol in
  let p =
    match o.sizes with
    | Some z -> { p with Scenario.warmup = z.Scenario.warmup; measured = z.measured; drain = z.drain }
    | None -> p
  in
  let p = { p with Scenario.seed = Option.value o.seed ~default:p.Scenario.seed } in
  let protocol = if o.store_and_forward then { p with cd_mode = Store_and_forward } else p in
  let* pattern = apply_pattern o.pattern s.Scenario.pattern in
  let* replication = apply_replication o.replication s.Scenario.replication in
  let s = { s with Scenario.system; message; protocol; pattern; replication } in
  let s = match o.lambda with Some l -> Scenario.at s l | None -> s in
  let* () = Scenario.validate s in
  Ok s

let resolve ?(protocol = Scenario.default_protocol) ~scenario o =
  match scenario with
  | Some path ->
      let* base = Scenario.load path in
      Result.map_error (fun e -> path ^ ": " ^ e) (apply o base)
  | None -> (
      let* system = build_system o.system in
      match
        Scenario.make ~system ~message:(Presets.message ~m_flits:32 ~d_m_bytes:256.) ~protocol
          ~load:(Scenario.Fixed 1e-4) ()
      with
      | base -> apply o base
      | exception Invalid_argument msg -> Error msg)

(* ---- sweep engine flags ---- *)

let domains =
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

let no_cache =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Recompute every point; do not read or write the point cache.")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          (Printf.sprintf "Point cache directory (default %s)."
             Fatnet_experiments.Point_cache.default_dir))

let point_cache ~no_cache ~cache_dir =
  match (no_cache, cache_dir) with
  | true, Some _ -> failwith "--cache-dir cannot take effect with --no-cache"
  | true, None -> None
  | false, dir -> Some (Option.value dir ~default:Fatnet_experiments.Point_cache.default_dir)

type engine_opts = {
  domains : int option;
  no_cache : bool;
  cache_dir : string option;
  retries : int option;
  fail_fast : bool;
  inject_faults : string option;
}

let engine_opts =
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Extra attempts per failing sweep point before it is quarantined (default %d; 0 \
                disables retries)."
               Sweep_engine.default_config.Sweep_engine.retries))
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
  let make domains no_cache cache_dir retries fail_fast inject_faults =
    { domains; no_cache; cache_dir; retries; fail_fast; inject_faults }
  in
  Term.(const make $ domains $ no_cache $ cache_dir $ retries $ fail_fast $ inject_faults)

let engine_of_opts ?(tracer = Trace.disabled) ?(metrics = Metrics.disabled) (opts : engine_opts) =
  let faults =
    match opts.inject_faults with
    | None -> Fatnet_experiments.Fault.none
    | Some spec -> (
        match Fatnet_experiments.Fault.of_spec spec with
        | Ok plan -> plan
        | Error msg -> failwith ("--inject-faults: " ^ msg))
  in
  let dir = point_cache ~no_cache:opts.no_cache ~cache_dir:opts.cache_dir in
  {
    Sweep_engine.domains = opts.domains;
    cache = (match dir with None -> Sweep_engine.No_cache | Some d -> Sweep_engine.Cache_dir d);
    trace = None;
    tracer;
    metrics;
    retries =
      max 0 (Option.value opts.retries ~default:Sweep_engine.default_config.Sweep_engine.retries);
    fail_fast = opts.fail_fast;
    faults;
    (* One in-memory memo per invocation: a command that runs many
       sweeps over one engine config (every figure) serves repeated
       points with a hashtable probe.  [--no-cache] means "recompute
       every point", so it turns the memo off too. *)
    memo = (if opts.no_cache then None else Some (Fatnet_numerics.Memo.create ()));
  }

(* ---- telemetry flags ---- *)

type metrics_format = Metrics_json | Metrics_prometheus | Metrics_table

type metrics_opts = { metrics_file : string option; metrics_format : metrics_format option }

let default_metrics_file = "results/metrics.json"

let formats =
  [ ("json", Metrics_json); ("prometheus", Metrics_prometheus); ("table", Metrics_table) ]

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
      & opt (some (enum formats)) None
      & info [ "metrics-format" ] ~docv:"FMT"
          ~doc:
            "Telemetry output format: $(b,json) (the default; schema-versioned snapshot, \
             re-readable by 'fatnet report'), $(b,prometheus) (text exposition format), or \
             $(b,table) (the human view).")
  in
  let make metrics_file metrics_format = { metrics_file; metrics_format } in
  Term.(const make $ file $ format)

let metrics_registry ?(live = false) opts =
  if opts.metrics_file = None && opts.metrics_format <> None then
    failwith "--metrics-format cannot take effect without --metrics";
  if live || opts.metrics_file <> None then Metrics.create () else Metrics.disabled

let render_metrics format snapshot =
  match format with
  | Metrics_json -> Metrics.Snapshot.to_json snapshot
  | Metrics_prometheus -> Metrics.Snapshot.to_prometheus snapshot
  | Metrics_table -> Fatnet_report.Metrics_report.render snapshot

let write_file ~what path body =
  if path = "-" then print_string body
  else begin
    Fatnet_experiments.Fs_util.mkdir_p (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc -> output_string oc body);
    Log.info "%s: wrote %s" what path
  end

let write_metrics opts registry =
  Option.iter
    (fun path ->
      write_file ~what:"metrics" path
        (render_metrics
           (Option.value opts.metrics_format ~default:Metrics_json)
           (Metrics.snapshot registry)))
    opts.metrics_file

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
                render it with 'fatnet timeline'.  Tracing observes only: results and \
                cache entries are bit-identical to an untraced run."
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

let progress_wanted opts = (not opts.quiet) && Unix.isatty Unix.stderr

let tracer_of_opts ?(progress = false) opts =
  if opts.quiet then Log.set_threshold Log.Error;
  if opts.trace_file <> None || (progress && progress_wanted opts) then Trace.create ()
  else Trace.disabled

let write_trace opts tracer =
  Option.iter
    (fun path -> write_file ~what:"trace" path (Trace.to_chrome_json tracer))
    opts.trace_file

(* ---- command flags ---- *)

let out_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Directory for CSV output (fig: results; sweep: results/sweep).")

let steps =
  Arg.(
    value
    & opt (some int) None
    & info [ "steps" ] ~docv:"N" ~doc:"Points per curve (model --sweep: 12; ablate: 6).")

let sweep = Arg.(value & flag & info [ "sweep" ] ~doc:"Sweep λ_g up to 0.95 of saturation.")

let saturation =
  Arg.(value & flag & info [ "saturation" ] ~doc:"Print the model's saturation rate.")

let message_trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "message-trace" ] ~docv:"FILE" ~doc:"Write a per-message CSV trace to FILE.")

let model_steps =
  Arg.(
    value
    & opt (some int) None
    & info [ "model-steps" ] ~docv:"N" ~doc:"Model points per curve (default 24; 16 with --quick).")

let sim_steps =
  Arg.(
    value
    & opt (some int) None
    & info [ "sim-steps" ] ~docv:"N"
        ~doc:"Simulation points per curve (default 6; 3 with --quick).")

let no_sim = Arg.(value & flag & info [ "no-sim" ] ~doc:"Skip simulation series.")

let p99 =
  Arg.(
    value & flag
    & info [ "p99" ]
        ~doc:
          "Also emit the figure's tail family: predicted (model) vs simulated p99 latency, \
           written as FIGURE-p99.csv next to the mean CSV.  The simulated p99 is a \
           projection of the same sweep (no extra simulation cost).")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (default examples/FIGURE.scn).")

let format =
  Arg.(
    value
    & opt (enum formats) Metrics_table
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: $(b,table) (default), $(b,json), or $(b,prometheus).")

let top =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"N" ~doc:"How many slowest spans to list (default 10).")

let listen =
  Arg.(
    value
    & opt string "unix:/tmp/fatnet-serve.sock"
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:"Listen address: $(b,unix:)$(i,PATH) or $(b,tcp:)$(i,HOST):$(i,PORT).")

let memo_capacity =
  Arg.(
    value
    & opt int Fatnet_serve.Oracle.default_memo_capacity
    & info [ "memo-capacity" ] ~docv:"N"
        ~doc:
          "In-memory memo bound, entries per shard (64 shards); 0 = unbounded.  Bounded by \
           default: a daemon fed distinct λ values must not grow without limit.")

let cache_recovery =
  Arg.(
    value
    & opt int Fatnet_serve.Oracle.default_cache_recovery
    & info [ "cache-recovery" ] ~docv:"N"
        ~doc:
          "After a cache I/O error, skip N point lookups then re-probe (a daemon outlives \
           transient disk hiccups); 0 = degrade permanently like a batch sweep.")

let max_batch =
  Arg.(
    value
    & opt int Fatnet_serve.Server.default_max_batch
    & info [ "max-batch" ] ~docv:"N" ~doc:"Largest single pool dispatch.")

let connect =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:"Daemon address ($(b,unix:)$(i,PATH) or $(b,tcp:)$(i,HOST):$(i,PORT)).")

let offline =
  Arg.(
    value & flag
    & info [ "offline" ]
        ~doc:
          "Answer locally (no daemon) from --scenario; output is bit-for-bit what the \
           daemon answers for the same scenario.")

let bench_dir =
  Arg.(
    value
    & opt (some dir) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Directory holding freshly generated bench records to check against the baselines.")

let baseline =
  Arg.(
    value & opt dir "."
    & info [ "baseline" ] ~docv:"DIR" ~doc:"Directory holding the committed bench records.")

let guard_tol =
  Arg.(
    value
    & opt (some float) None
    & info [ "guard-tol" ] ~docv:"X"
        ~doc:
          "Also fail when a tracked (higher or lower) row moves against its direction by more \
           than this fraction of the baseline (off by default: throughput is machine-dependent).")

(* Repo-level utility commands.

   `fatnet serve` runs the latency oracle as a long-lived daemon: one
   scenario, a Unix or TCP socket, newline-delimited JSON queries
   (see lib/serve/protocol.mli), the model evaluation pool behind it.
   `fatnet query` is the matching client — and, with --offline, a
   local evaluator whose output is bit-for-bit the daemon's, which is
   what the CI smoke diffs.

   `fatnet bench report` reads the checked-in BENCH_*.json baselines
   (and, with --dir, a directory of freshly generated ones), renders a
   regression table per bench family, and exits non-zero when any
   family's own pass flag is false, an overhead guard exceeds its
   tolerance, or (with --guard-tol) a headline metric moved against
   its direction by more than the given fraction.  CI runs the obs
   bench into results/ and then `fatnet bench report --dir results`
   instead of hand-rolled jq checks. *)

module Json = Fatnet_obs.Json
module Table = Fatnet_report.Table

(* ------------------------------------------------------------------ *)
(* Dotted-path lookup into a parsed document: "totals.speedup",
   "organizations[0].workspace.evals_per_sec".                         *)

let lookup json path =
  let seg j seg =
    match String.index_opt seg '[' with
    | None -> Json.member seg j
    | Some b when String.length seg > b + 1 && seg.[String.length seg - 1] = ']' ->
        let name = String.sub seg 0 b in
        let idx = String.sub seg (b + 1) (String.length seg - b - 2) in
        let base = if name = "" then Some j else Json.member name j in
        Option.bind base (fun v ->
            match (v, int_of_string_opt idx) with
            | Json.Arr l, Some i -> List.nth_opt l i
            | _ -> None)
    | Some _ -> None
  in
  List.fold_left
    (fun acc s -> Option.bind acc (fun j -> seg j s))
    (Some json)
    (String.split_on_char '.' path)

let number json path =
  match lookup json path with Some (Json.Num f) -> Some f | _ -> None

let boolean json path =
  match lookup json path with Some (Json.Bool b) -> Some b | _ -> None

(* ------------------------------------------------------------------ *)
(* What each bench family reports.  [Higher]/[Lower] metrics are
   guarded by --guard-tol (a drop / rise beyond the fraction fails);
   [Info] rows never fail on their own.  [tolerance] pairs a metric
   with the path of its in-file ceiling (value must stay <= ceiling). *)

type direction = Higher | Lower | Info

type metric = {
  label : string;
  path : string;
  direction : direction;
  tolerance : string option;  (* path of the ceiling, e.g. "tolerance" *)
}

type family = {
  file : string;
  pass_flag : string option;  (* path of the family's own boolean verdict *)
  rows : metric list;
}

let m ?tolerance label path direction = { label; path; direction; tolerance }

let families =
  [
    {
      file = "BENCH_model.json";
      pass_flag = Some "pass";
      rows =
        [
          m "org_544 workspace evals/s" "organizations[0].workspace.evals_per_sec" Higher;
          m "org_1120 workspace evals/s" "organizations[1].workspace.evals_per_sec" Higher;
          m "org_544 fit+p99 evals/s" "organizations[0].tail.fit_p99_evals_per_sec" Higher;
          m "org_1120 fit+p99 evals/s" "organizations[1].tail.fit_p99_evals_per_sec" Higher;
          m "org_544 warm-saturation speedup" "organizations[0].saturation_speedup" Higher;
          m "org_1120 warm-saturation speedup" "organizations[1].saturation_speedup" Higher;
        ];
    };
    {
      file = "BENCH_sim.json";
      pass_flag = None;
      rows =
        [
          m "per-flit events/s" "totals.per_flit_events_per_sec" Higher;
          m "streaming events/s" "totals.streaming_events_per_sec" Higher;
          m "streaming speedup" "totals.speedup" Higher;
        ];
    };
    {
      file = "BENCH_parallel.json";
      pass_flag = Some "pass";
      rows =
        [
          m "org_544 served evals/s" "organizations[0].best_served_evals_per_sec" Higher;
          m "org_1120 served evals/s" "organizations[1].best_served_evals_per_sec" Higher;
        ];
    };
    {
      file = "BENCH_sweep.json";
      pass_flag = Some "warm_equals_cold_bitwise";
      rows =
        [
          m "cold speedup vs baseline" "cold_speedup_vs_baseline" Higher;
          m "warm speedup vs cold" "warm_speedup_vs_cold" Higher;
        ];
    };
    {
      file = "BENCH_tail.json";
      pass_flag = Some "pass";
      rows =
        [
          m "worst overhead fraction" "worst_overhead_fraction" Lower
            ~tolerance:"tolerance";
          m "p99 quantile evals/s" "model_tail.p99_quantile_evals_per_sec" Higher;
        ];
    };
    {
      file = "BENCH_serve.json";
      pass_flag = Some "pass";
      rows =
        [
          m "best sustained queries/s" "best.queries_per_sec" Higher;
          m "best p99 service seconds" "best.p99_seconds" Lower
            ~tolerance:"p99_budget_seconds";
        ];
    };
    {
      file = "BENCH_obs.json";
      pass_flag = Some "pass";
      rows =
        [
          m "enabled overhead" "enabled_overhead" Lower
            ~tolerance:"enabled_overhead_tolerance";
          m "trace overhead" "trace_overhead" Lower
            ~tolerance:"enabled_overhead_tolerance";
          m "disabled events/s" "disabled.events_per_sec" Higher;
          m "disabled vs baseline" "disabled_vs_baseline" Info;
        ];
    };
  ]

(* ------------------------------------------------------------------ *)

let read_doc dir file =
  let path = Filename.concat dir file in
  if not (Sys.file_exists path) then Ok None
  else
    let contents = In_channel.with_open_bin path In_channel.input_all in
    match Json.parse_result contents with
    | Ok j -> Ok (Some j)
    | Error e -> Error (Printf.sprintf "%s: %s" path e)

let fmt_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

let report dir baseline_dir obs_tol guard_tol =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let table =
    Table.create ~columns:[ "bench"; "metric"; "baseline"; "new"; "delta"; "status" ]
  in
  let errors = ref [] in
  let any_seen = ref false in
  List.iter
    (fun fam ->
      let doc_of = function
        | Ok d -> d
        | Error e ->
            errors := e :: !errors;
            None
      in
      let base = doc_of (read_doc baseline_dir fam.file) in
      let fresh =
        match dir with Some d -> doc_of (read_doc d fam.file) | None -> None
      in
      (* Guards run against the freshest document available. *)
      let eff = match fresh with Some _ -> fresh | None -> base in
      match eff with
      | None -> ()
      | Some eff_doc ->
          any_seen := true;
          let short = Filename.remove_extension fam.file in
          (match fam.pass_flag with
          | Some path when boolean eff_doc path = Some false ->
              fail "%s: %s is false" fam.file path;
              Table.add_row table [ short; path; "--"; "--"; "--"; "FAIL" ]
          | _ -> ());
          List.iter
            (fun mt ->
              let bval = Option.bind base (fun d -> number d mt.path) in
              let fval = Option.bind fresh (fun d -> number d mt.path) in
              let eval = number eff_doc mt.path in
              match eval with
              | None -> ()  (* e.g. trace_overhead before it existed *)
              | Some v ->
                  let delta =
                    match (bval, fval) with
                    | Some b, Some f when b <> 0. ->
                        Some (100. *. (f -. b) /. Float.abs b)
                    | _ -> None
                  in
                  let ceiling =
                    match mt.tolerance with
                    | None -> None
                    | Some _ when fam.file = "BENCH_obs.json" && obs_tol <> None ->
                        obs_tol
                    | Some p -> number eff_doc p
                  in
                  let status = ref "ok" in
                  (match ceiling with
                  | Some tol when v > tol ->
                      status := "FAIL";
                      fail "%s: %s = %g exceeds tolerance %g" fam.file mt.label v tol
                  | _ -> ());
                  (match (guard_tol, delta, mt.direction) with
                  | Some g, Some d, Higher when d < -100. *. g ->
                      status := "FAIL";
                      fail "%s: %s dropped %.1f%% (guard %.1f%%)" fam.file mt.label
                        (-.d) (100. *. g)
                  | Some g, Some d, Lower when d > 100. *. g ->
                      status := "FAIL";
                      fail "%s: %s rose %.1f%% (guard %.1f%%)" fam.file mt.label d
                        (100. *. g)
                  | _ -> ());
                  Table.add_row table
                    [
                      short;
                      mt.label;
                      (match bval with Some b -> fmt_num b | None -> "--");
                      (match fval with Some f -> fmt_num f | None -> "--");
                      (match delta with
                      | Some d -> Printf.sprintf "%+.1f%%" d
                      | None -> "--");
                      !status;
                    ])
            fam.rows)
    families;
  List.iter (Printf.eprintf "error: %s\n%!") (List.rev !errors);
  if not !any_seen then begin
    Printf.eprintf "error: no BENCH_*.json found in %s%s\n%!" baseline_dir
      (match dir with Some d -> " or " ^ d | None -> "");
    1
  end
  else begin
    Table.print table;
    match (List.rev !failures, !errors) with
    | [], [] ->
        print_endline "all bench guards pass";
        0
    | fs, _ ->
        List.iter (Printf.printf "FAIL: %s\n") fs;
        1
  end

open Cmdliner

let dir =
  Arg.(
    value
    & opt (some dir) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Directory holding freshly generated BENCH_*.json to compare against the baselines.")

let baseline_dir =
  Arg.(
    value
    & opt dir "."
    & info [ "baseline" ] ~docv:"DIR"
        ~doc:"Directory holding the checked-in BENCH_*.json baselines (default: current directory).")

let obs_tol =
  Arg.(
    value
    & opt (some float) None
    & info [ "obs-tol" ]
        ~doc:
          "Override the instrumentation-overhead tolerance from BENCH_obs.json (a fraction, \
           e.g. 0.01).")

let guard_tol =
  Arg.(
    value
    & opt (some float) None
    & info [ "guard-tol" ]
        ~doc:
          "Also fail when a headline metric moves against its direction by more than this \
           fraction versus the baseline (off by default: throughput is machine-dependent).")

let report_cmd =
  let term = Term.(const report $ dir $ baseline_dir $ obs_tol $ guard_tol) in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render the bench-regression table and exit non-zero past tolerance.")
    term

let bench_cmd =
  Cmd.group (Cmd.info "bench" ~doc:"Benchmark baseline utilities.") [ report_cmd ]

(* ------------------------------------------------------------------ *)
(* fatnet serve / fatnet query *)

module Cli = Fatnet_cli.Cli
module Metrics = Fatnet_obs.Metrics
module Serve = Fatnet_serve.Server
module Oracle = Fatnet_serve.Oracle
module Protocol = Fatnet_serve.Protocol
module Point_cache = Fatnet_experiments.Point_cache

let default_listen = "unix:/tmp/fatnet-serve.sock"

let listen_arg =
  Arg.(
    value
    & opt string default_listen
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Listen address: $(b,unix:)$(i,PATH) or $(b,tcp:)$(i,HOST):$(i,PORT) (default \
           unix:/tmp/fatnet-serve.sock).")

let memo_capacity_arg =
  Arg.(
    value
    & opt int Oracle.default_memo_capacity
    & info [ "memo-capacity" ] ~docv:"N"
        ~doc:
          "In-memory memo bound, entries per shard (64 shards); 0 = unbounded.  Bounded by \
           default: a daemon fed distinct λ values must not grow without limit.")

let cache_dir_arg =
  Arg.(
    value
    & opt string Point_cache.default_dir
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Point cache served by the $(b,point) op (simulated results).")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the $(b,point) op's disk cache.")

let cache_recovery_arg =
  Arg.(
    value
    & opt int Oracle.default_cache_recovery
    & info [ "cache-recovery" ] ~docv:"N"
        ~doc:
          "After a cache I/O error, skip N point lookups then re-probe (a daemon outlives \
           transient disk hiccups); 0 = degrade permanently like a batch sweep.")

let max_batch_arg =
  Arg.(
    value
    & opt int Serve.default_max_batch
    & info [ "max-batch" ] ~docv:"N" ~doc:"Largest single pool dispatch (default 1024).")

let serve_run scenario system message listen domains memo_capacity cache_dir no_cache
    cache_recovery max_batch mopts topts =
  Cli.guard @@ fun () ->
  match Cli.resolve ~scenario ~system ~message () with
  | Error e -> Error e
  | Ok scn -> (
      match Serve.address_of_string listen with
      | Error e -> Error e
      | Ok address -> (
          match Cli.resolve_domains domains with
          | Error e -> Error e
          | Ok domains ->
              if memo_capacity < 0 then Error "--memo-capacity must be >= 0"
              else if cache_recovery < 0 then Error "--cache-recovery must be >= 0"
              else begin
                (* The daemon's registry is always live (the /metrics
                   scrape must have data); --metrics FILE additionally
                   writes a snapshot at shutdown. *)
                let reg = Metrics.create () in
                Metrics.set_meta reg "command" "serve";
                Metrics.set_meta reg "listen" (Serve.address_to_string address);
                let tracer = Cli.tracer_of_opts topts in
                let oracle =
                  Oracle.create ~domains ~memo_capacity
                    ?cache_dir:(if no_cache then None else Some cache_dir)
                    ~cache_recovery ~metrics:reg ~tracer scn
                in
                let stop = Atomic.make false in
                let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
                Sys.set_signal Sys.sigterm on_signal;
                Sys.set_signal Sys.sigint on_signal;
                Serve.serve { Serve.address; max_batch; stop; metrics = reg; tracer }
                  oracle;
                Oracle.shutdown oracle;
                Cli.write_metrics mopts reg;
                Cli.write_trace topts tracer;
                Ok 0
              end))

let serve_cmd =
  let term =
    Term.(
      const serve_run $ Cli.scenario_file $ Cli.system_opts $ Cli.message_opts
      $ listen_arg $ Cli.domains_arg $ memo_capacity_arg $ cache_dir_arg $ no_cache_arg
      $ cache_recovery_arg $ max_batch_arg $ Cli.metrics_opts $ Cli.trace_opts)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the latency oracle as a daemon: newline-delimited JSON queries over a Unix \
          or TCP socket, plus an HTTP GET /metrics Prometheus scrape on the same socket.")
    term

(* --- query: socket client, or offline local evaluation --- *)

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
  let fd =
    match address with
    | Serve.Unix_path p ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX p);
        fd
    | Serve.Tcp (host, port) ->
        let addr =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (addr, port));
        fd
  in
  let oc = Unix.out_channel_of_descr fd and ic = Unix.in_channel_of_descr fd in
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

let read_stdin_lines () =
  let rec go acc =
    match In_channel.input_line stdin with
    | Some l -> go (l :: acc)
    | None -> List.rev acc
  in
  go []

let query_run connect offline scenario system message domains requests =
  Cli.guard @@ fun () ->
  let lines =
    (match requests with [] -> read_stdin_lines () | rs -> rs)
    |> List.filter (fun l -> String.trim l <> "")
  in
  match (connect, offline) with
  | Some _, true -> Error "--connect and --offline are mutually exclusive"
  | None, false -> Error "pass --connect ADDR (socket client) or --offline (local evaluation)"
  | Some addr, false -> (
      match Serve.address_of_string addr with
      | Error e -> Error e
      | Ok address ->
          answer_lines_socket address lines;
          Ok 0)
  | None, true -> (
      match Cli.resolve ~scenario ~system ~message () with
      | Error e -> Error e
      | Ok scn -> (
          match Cli.resolve_domains domains with
          | Error e -> Error e
          | Ok domains ->
              let oracle = Oracle.create ~domains scn in
              Fun.protect
                ~finally:(fun () -> Oracle.shutdown oracle)
                (fun () -> answer_lines_offline oracle lines);
              Ok 0))

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:"Daemon address ($(b,unix:)$(i,PATH) or $(b,tcp:)$(i,HOST):$(i,PORT)).")

let offline_arg =
  Arg.(
    value & flag
    & info [ "offline" ]
        ~doc:
          "Answer locally (no daemon) from --scenario; output is bit-for-bit what the \
           daemon answers for the same scenario.")

let requests_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"REQUEST"
        ~doc:"Request lines (JSON); read from stdin when none are given.")

let query_cmd =
  let term =
    Term.(
      const query_run $ connect_arg $ offline_arg $ Cli.scenario_file $ Cli.system_opts
      $ Cli.message_opts $ Cli.domains_arg $ requests_arg)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send oracle queries to a running daemon (--connect), or answer them locally \
          (--offline --scenario FILE).")
    term

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "fatnet" ~doc:"Fatnet repo utilities.")
          [ bench_cmd; serve_cmd; query_cmd ]))

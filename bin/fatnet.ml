(* Repo-level utility commands.

   `fatnet serve` runs the latency oracle as a long-lived daemon: one
   scenario, a Unix or TCP socket, newline-delimited JSON queries
   (see lib/serve/protocol.mli), the model evaluation pool behind it.
   `fatnet query` is the matching client — and, with --offline, a
   local evaluator whose output is bit-for-bit the daemon's, which is
   what the CI smoke diffs.

   `fatnet bench report` checks bench records (see
   lib/report/bench_record.mli): every record in --baseline, or its
   fresh counterpart in --dir, against the union of both records'
   gates, plus --guard-tol against the baseline's numbers. *)

open Cmdliner

let dir =
  Arg.(
    value
    & opt (some dir) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Directory holding freshly generated bench records to check against the baselines.")

let baseline_dir =
  Arg.(
    value
    & opt dir "."
    & info [ "baseline" ] ~docv:"DIR"
        ~doc:"Directory holding the committed bench records (default: current directory).")

let guard_tol =
  Arg.(
    value
    & opt (some float) None
    & info [ "guard-tol" ]
        ~doc:
          "Also fail when a tracked (higher or lower) row moves against its direction by more \
           than this fraction of the baseline (off by default: throughput is machine-dependent).")

let report_cmd =
  let report dir baseline guard_tol = Fatnet_report.Bench_record.report ~baseline ~dir ~guard_tol in
  Cmd.v
    (Cmd.info "report" ~doc:"Render the bench-regression table and exit non-zero on a failed gate.")
    Term.(const report $ dir $ baseline_dir $ guard_tol)

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

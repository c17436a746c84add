(* Benchmark harness: measures what the paper's "practical evaluation
   tool" costs — the model kernel against the simulator it replaces,
   and the machinery around both.

     bench/main.exe [--quick] [--out DIR] [SUITE ...]

   Each named suite (default: all of them, in the order below) runs,
   writes its record to DIR/BENCH_<suite>.json (DIR defaults to the
   current directory, where the committed baselines live) and has its
   gates checked; the run exits 1 if any gate failed, after writing
   every record.  --quick runs the sizes CI uses.  Run it from the
   repository root: the model suite reads test/golden/.

     sim       simulator events/s, per-flit vs streaming engine
     sweep     fixed-budget pool vs adaptive engine, cold and warm cache
     model     kernel mean and p99 evals/s, cold vs warm saturation search
     parallel  design walk on Eval.Pool and the sharded memo, by domains
     tail      cost of the P² quantile ladder, as a share of a sim run
     serve     Oracle.answer_batch queries/s and p99 service time
     obs       cost of a live metrics registry and of a live span trace

   The record schema, the gate rule and `fatnet bench report` live in
   Fatnet_report.Bench_record. *)

module Record = Fatnet_report.Bench_record

let suites =
  [
    ("sim", Sim.run);
    ("sweep", Sweep.run);
    ("model", Model.run);
    ("parallel", Parallel.run);
    ("tail", Tail.run);
    ("serve", Serve.run);
    ("obs", Obs.run);
  ]

let usage =
  "usage: bench/main.exe [--quick] [--out DIR] [SUITE ...]\nsuites: "
  ^ String.concat " " (List.map fst suites)

let print_record (r : Record.t) path =
  Printf.printf "== %s: %s (written to %s) ==\n" r.Record.suite r.Record.title path;
  let table = Fatnet_report.Table.create ~columns:[ "row"; "value"; "unit" ] in
  List.iter
    (fun (x : Record.row) ->
      Fatnet_report.Table.add_row table
        [ x.Record.name; Printf.sprintf "%.6g" x.Record.value; x.Record.unit ])
    r.Record.rows;
  Fatnet_report.Table.print table;
  List.iter
    (fun (g : Record.gate) ->
      Printf.printf "gate %s: %s\n%!" g.Record.metric
        (Option.value (Record.check r g) ~default:"pass"))
    r.Record.gates;
  print_newline ()

let () =
  let quick = ref false and out = ref "." and named = ref [] in
  Arg.parse
    [
      ("--quick", Arg.Set quick, " run the sizes CI uses");
      ("--out", Arg.Set_string out, "DIR  where each BENCH_<suite>.json goes (default .)");
    ]
    (fun s -> named := s :: !named)
    usage;
  let selected =
    match !named with [] -> List.map fst suites | l -> l
  in
  List.iter
    (fun s ->
      if not (List.mem_assoc s suites) then begin
        Printf.eprintf "error: unknown suite %S\n%s\n" s usage;
        exit 2
      end)
    selected;
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let failures =
    List.concat_map
      (fun (name, run) ->
        if not (List.mem name selected) then []
        else
          let r = run ~quick:!quick in
          print_record r (Record.write ~dir:!out r);
          List.filter_map (Record.check r) r.Record.gates)
      suites
  in
  List.iter (Printf.eprintf "FAIL: %s\n") failures;
  if failures <> [] then exit 1

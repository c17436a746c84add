(* Tests for the reporting library: table rendering, series algebra,
   CSV output, and the bench record with its gates and report. *)

module Table = Fatnet_report.Table
module Series = Fatnet_report.Series

let table_renders_aligned () =
  let t = Table.create ~columns:[ "a"; "long-header" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.to_string t in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: rule :: _ ->
      Alcotest.(check int) "rule width matches header" (String.length header)
        (String.length rule)
  | _ -> Alcotest.fail "expected at least two lines");
  Alcotest.(check bool) "contains data" true
    (List.exists (fun l -> String.length l > 0 && String.trim l <> "" &&
                           String.length l >= 3 &&
                           (let t = String.trim l in String.length t >= 3 && String.sub t 0 3 = "333")) lines)

let table_rejects_width_mismatch () =
  let t = Table.create ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "width" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let table_formats_saturated () =
  let t = Table.create ~columns:[ "x" ] in
  Table.add_float_row t [ infinity ];
  Alcotest.(check bool) "sat. marker" true
    (String.length (Table.to_string t) > 0
    && String.split_on_char '\n' (Table.to_string t)
       |> List.exists (fun l -> String.trim l = "sat."))

let series_finite_filters () =
  let s = Series.create ~name:"s" ~points:[ (1., 2.); (2., infinity); (3., 4.) ] in
  Alcotest.(check int) "dropped" 2 (List.length (Series.finite s).Series.points)

let series_errors_zero_for_identical () =
  let s = Series.create ~name:"a" ~points:[ (1., 10.); (2., 20.); (3., 30.) ] in
  Alcotest.(check (float 1e-9)) "max err" 0. (Series.max_relative_error ~reference:s s);
  Alcotest.(check (float 1e-9)) "mean err" 0. (Series.mean_relative_error ~reference:s s)

let series_errors_known () =
  let reference = Series.create ~name:"ref" ~points:[ (1., 10.); (2., 20.) ] in
  let s = Series.create ~name:"s" ~points:[ (1., 11.); (2., 22.) ] in
  Alcotest.(check (float 1e-9)) "10% everywhere" 0.1
    (Series.max_relative_error ~reference s);
  Alcotest.(check (float 1e-9)) "mean 10%" 0.1 (Series.mean_relative_error ~reference s)

let series_error_interpolates () =
  (* s sampled at different x than the reference *)
  let reference = Series.create ~name:"ref" ~points:[ (1., 10.); (3., 30.) ] in
  let s = Series.create ~name:"s" ~points:[ (0., 0.); (4., 40.) ] in
  Alcotest.(check (float 1e-9)) "linear agreement" 0.
    (Series.max_relative_error ~reference s)

let csv_shape () =
  let a = Series.create ~name:"a" ~points:[ (1., 10.); (2., 20.) ] in
  let b = Series.create ~name:"b" ~points:[ (1., 1.); (2., 2.) ] in
  let csv = Series.to_csv [ a; b ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "x,a,b" (List.hd lines)

let csv_blank_outside_domain () =
  let a = Series.create ~name:"a" ~points:[ (1., 10.) ] in
  let b = Series.create ~name:"b" ~points:[ (2., 5.) ] in
  let csv = Series.to_csv [ a; b ] in
  Alcotest.(check bool) "row for x=2 has blank a" true
    (String.split_on_char '\n' csv |> List.exists (fun l -> l = "2,,5"))

let csv_roundtrip_file () =
  let path = Filename.temp_file "fatnet" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Series.write_csv ~path [ Series.create ~name:"s" ~points:[ (1., 2.) ] ];
      let ic = open_in path in
      let header = input_line ic in
      close_in ic;
      Alcotest.(check string) "file header" "x,s" header)

let plot_renders_markers () =
  let s1 = Series.create ~name:"one" ~points:[ (0., 0.); (1., 1.) ] in
  let s2 = Series.create ~name:"two" ~points:[ (0., 1.); (1., 0.) ] in
  let out = Fatnet_report.Ascii_plot.render ~width:20 ~height:8 [ s1; s2 ] in
  Alcotest.(check bool) "marker a" true (String.contains out 'a');
  Alcotest.(check bool) "marker b" true (String.contains out 'b');
  Alcotest.(check bool) "legend one" true
    (List.exists (fun l -> l = "  a = one") (String.split_on_char '\n' out));
  Alcotest.(check bool) "legend two" true
    (List.exists (fun l -> l = "  b = two") (String.split_on_char '\n' out))

let plot_handles_empty () =
  Alcotest.(check string) "placeholder" "(no finite points)\n"
    (Fatnet_report.Ascii_plot.render [ Series.create ~name:"x" ~points:[ (0., infinity) ] ])

let plot_caps_y () =
  let s = Series.create ~name:"s" ~points:[ (0., 1.); (1., 1000.) ] in
  let out = Fatnet_report.Ascii_plot.render ~width:20 ~height:6 ~y_cap:10. [ s ] in
  (* the top axis label reflects the cap, not the data maximum *)
  Alcotest.(check bool) "capped axis" true
    (String.length out > 0
    && String.split_on_char '\n' out
       |> List.exists (fun l ->
              String.length l > 10 && String.trim (String.sub l 0 10) = "10"))

(* ---- bench records ---- *)

module Record = Fatnet_report.Bench_record

let same_float a b =
  (Float.is_nan a && Float.is_nan b) || Int64.bits_of_float a = Int64.bits_of_float b

let gen_record =
  let open QCheck.Gen in
  let text = string_size ~gen:char (int_bound 12) in
  let value =
    oneof
      [
        map Int64.float_of_bits int64;
        float;
        oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.; 5e-324; Float.max_float ];
      ]
  in
  let finite = map (fun f -> if Float.is_finite f then f else 1.) float in
  let row i =
    map4
      (fun name value unit better ->
        { Record.name = Printf.sprintf "%s#%d" name i; value; unit; better })
      text value text
      (oneofl Record.[ Higher; Lower; Info ])
  in
  let gate =
    map3
      (fun metric b is_max ->
        { Record.metric; bound = (if is_max then Record.Max b else Record.Min b) })
      text finite bool
  in
  let* suite = text and* title = text and* note = text in
  let* recommended_domains = opt (int_range 1 1024) and* ocaml = opt text in
  let* n = int_bound 20 in
  let* rows = flatten_l (List.init n row) and* gates = list_size (int_bound 4) gate in
  return
    { Record.suite; title; note; host = { Record.recommended_domains; ocaml }; rows; gates }

let record_round_trip =
  QCheck.Test.make ~name:"round trip bit for bit, inf and nan included" ~count:500
    (QCheck.make gen_record) (fun r ->
      match Record.of_string (Record.to_string r) with
      | Error e -> QCheck.Test.fail_reportf "reader rejected its own output: %s" e
      | Ok r' ->
          r'.Record.suite = r.Record.suite
          && r'.Record.title = r.Record.title
          && r'.Record.note = r.Record.note
          && r'.Record.host = r.Record.host
          && r'.Record.gates = r.Record.gates
          && List.equal
               (fun (a : Record.row) (b : Record.row) ->
                 a.Record.name = b.Record.name
                 && same_float a.Record.value b.Record.value
                 && a.Record.unit = b.Record.unit
                 && a.Record.better = b.Record.better)
               r.Record.rows r'.Record.rows)

let one_row value =
  {
    Record.suite = "t";
    title = "";
    note = "";
    host = { Record.recommended_domains = None; ocaml = None };
    rows = [ { Record.name = "m"; value; unit = "x"; better = Record.Lower } ];
    gates = [];
  }

let passes r bound = Record.check r { Record.metric = "m"; bound } = None

let gate_bounds () =
  Alcotest.(check bool) "max: at the bound" true (passes (one_row 0.05) (Record.Max 0.05));
  Alcotest.(check bool) "max: just past" false
    (passes (one_row (Float.succ 0.05)) (Record.Max 0.05));
  Alcotest.(check bool) "min: at the bound" true (passes (one_row 1e5) (Record.Min 1e5));
  Alcotest.(check bool) "min: just past" false
    (passes (one_row (Float.pred 1e5)) (Record.Min 1e5))

let gate_missing_or_non_finite () =
  Alcotest.(check bool) "missing metric" false
    (Record.check (one_row 0.) { Record.metric = "other"; bound = Record.Max 1. } = None);
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "%g under max" v) false
        (passes (one_row v) (Record.Max Float.max_float));
      Alcotest.(check bool) (Printf.sprintf "%g over min" v) false
        (passes (one_row v) (Record.Min (-.Float.max_float))))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* The committed records sit at the project root, next to dune-project. *)
let root = if Sys.file_exists "dune-project" then "." else ".."

let committed () =
  Sys.readdir root |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f && String.ends_with ~suffix:".json" f)
  |> List.sort compare
  |> List.map (fun f -> (f, In_channel.with_open_bin (Filename.concat root f) In_channel.input_all))

let read_committed name =
  match Record.read (Filename.concat root name) with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let committed_records_pass () =
  let files = committed () in
  Alcotest.(check int) "seven records" 7 (List.length files);
  List.iter
    (fun (f, _) ->
      let r = read_committed f in
      Alcotest.(check string) (f ^ " names its suite") f (Record.file_name r.Record.suite);
      List.iter
        (fun g ->
          match Record.check r g with
          | None -> ()
          | Some why -> Alcotest.failf "%s: %s" f why)
        r.Record.gates)
    files;
  Alcotest.(check int) "bench report on the baselines" 0
    (Record.report ~baseline:root ~dir:None ~guard_tol:None)

let with_temp_dir f =
  let dir = Filename.temp_file "fatnet-bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* A fresh record that drops its own gate is still held to the
   committed baseline's. *)
let report_keeps_baseline_gates () =
  let base = read_committed "BENCH_tail.json" in
  let bad =
    {
      base with
      Record.rows =
        List.map
          (fun (x : Record.row) ->
            if x.Record.name = "worst_overhead_fraction" then { x with Record.value = 0.9 } else x)
          base.Record.rows;
      gates = [];
    }
  in
  with_temp_dir (fun dir ->
      ignore (Record.write ~dir base);
      Alcotest.(check int) "unchanged copy passes" 0
        (Record.report ~baseline:root ~dir:(Some dir) ~guard_tol:None);
      ignore (Record.write ~dir bad);
      Alcotest.(check int) "0.9 with its gate removed fails" 1
        (Record.report ~baseline:root ~dir:(Some dir) ~guard_tol:None);
      ignore (Record.write ~dir { base with Record.rows = [] });
      Alcotest.(check int) "gated row removed fails" 1
        (Record.report ~baseline:root ~dir:(Some dir) ~guard_tol:None))

let report_guard_tol () =
  let base = read_committed "BENCH_tail.json" in
  let scaled k =
    {
      base with
      Record.rows =
        List.map
          (fun (x : Record.row) ->
            if x.Record.name = "model_tail.p99_quantile_evals_per_sec" then
              { x with Record.value = k *. x.Record.value }
            else x)
          base.Record.rows;
    }
  in
  with_temp_dir (fun dir ->
      ignore (Record.write ~dir (scaled 0.5));
      Alcotest.(check int) "report-only without --guard-tol" 0
        (Record.report ~baseline:root ~dir:(Some dir) ~guard_tol:None);
      Alcotest.(check int) "a halved higher-is-better row fails --guard-tol 0.1" 1
        (Record.report ~baseline:root ~dir:(Some dir) ~guard_tol:(Some 0.1));
      ignore (Record.write ~dir (scaled 2.));
      Alcotest.(check int) "a doubled one passes it" 0
        (Record.report ~baseline:root ~dir:(Some dir) ~guard_tol:(Some 0.1)))

let truncated_records_rejected () =
  List.iter
    (fun (f, text) ->
      let last = String.rindex text '}' in
      let step = max 1 (last / 300) in
      let rec go len =
        if len <= last then begin
          (match Record.of_string (String.sub text 0 len) with
          | Ok _ -> Alcotest.failf "%s cut at byte %d parsed" f len
          | Error _ -> ());
          go (if len >= last - 16 then len + 1 else len + step)
        end
      in
      go 0)
    (committed ())

let mutated_records_never_raise =
  let files = Array.of_list (committed ()) in
  let gen = QCheck.Gen.(quad nat (int_bound 1_000_000) (int_bound 2) char) in
  QCheck.Test.make ~name:"reader total on byte-mutated committed records" ~count:3000
    (QCheck.make gen) (fun (i, pos, op, c) ->
      let _, text = files.(i mod Array.length files) in
      let pos = pos mod String.length text in
      let before = String.sub text 0 pos in
      let after k = String.sub text (pos + k) (String.length text - pos - k) in
      let mutated =
        match op with
        | 0 -> before ^ String.make 1 c ^ after 1
        | 1 -> before ^ String.make 1 c ^ after 0
        | _ -> before ^ after 1
      in
      match Record.of_string mutated with Ok _ | Error _ -> true)

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "aligned" `Quick table_renders_aligned;
          Alcotest.test_case "width mismatch" `Quick table_rejects_width_mismatch;
          Alcotest.test_case "saturated marker" `Quick table_formats_saturated;
        ] );
      ( "series",
        [
          Alcotest.test_case "finite filter" `Quick series_finite_filters;
          Alcotest.test_case "identical zero error" `Quick series_errors_zero_for_identical;
          Alcotest.test_case "known error" `Quick series_errors_known;
          Alcotest.test_case "interpolated error" `Quick series_error_interpolates;
          Alcotest.test_case "csv shape" `Quick csv_shape;
          Alcotest.test_case "csv blanks" `Quick csv_blank_outside_domain;
          Alcotest.test_case "csv file" `Quick csv_roundtrip_file;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "markers and legend" `Quick plot_renders_markers;
          Alcotest.test_case "empty" `Quick plot_handles_empty;
          Alcotest.test_case "y cap" `Quick plot_caps_y;
        ] );
      ( "bench record",
        [
          QCheck_alcotest.to_alcotest record_round_trip;
          Alcotest.test_case "gate at and just past its bound" `Quick gate_bounds;
          Alcotest.test_case "missing or non-finite metric fails" `Quick
            gate_missing_or_non_finite;
          Alcotest.test_case "committed records pass their gates" `Quick committed_records_pass;
          Alcotest.test_case "report keeps the baseline's gates" `Quick
            report_keeps_baseline_gates;
          Alcotest.test_case "report guard tolerance" `Quick report_guard_tol;
          Alcotest.test_case "truncated records rejected" `Quick truncated_records_rejected;
          QCheck_alcotest.to_alcotest mutated_records_never_raise;
        ] );
    ]

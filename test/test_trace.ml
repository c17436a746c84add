(* The causal span trace: disabled-is-free discipline, the span-tree
   invariants under concurrent recording, the Chrome trace-event
   round trip, and the headline contract — a traced sweep is
   bit-identical to an untraced one, cache entries included. *)

module Trace = Fatnet_obs.Trace
module Json = Fatnet_obs.Json
module Engine = Fatnet_experiments.Sweep_engine
module Scenario = Fatnet_scenario.Scenario
module Presets = Fatnet_model.Presets
module Eval = Fatnet_model.Eval

let message = Presets.message ~m_flits:8 ~d_m_bytes:256.

let small_system =
  Fatnet_model.Params.homogeneous ~m:4 ~tree_depth:2 ~clusters:4 ~icn1:Presets.net1
    ~ecn1:Presets.net2 ~icn2:Presets.net1

let tiny_protocol =
  { Scenario.quick_protocol with Scenario.warmup = 10; measured = 100; drain = 10 }

let point lambda_g =
  Scenario.make ~name:"trace-test" ~system:small_system ~message ~protocol:tiny_protocol
    ~load:(Scenario.Fixed lambda_g) ()

let points n = List.init n (fun i -> point (1e-4 *. float_of_int (i + 1)))

let with_temp_dir f =
  let dir = Filename.temp_file "fatnet-trace-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (match Sys.readdir dir with
      | files ->
          Array.iter
            (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
            files
      | exception Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* --- disabled-is-free discipline ---------------------------------- *)

let disabled_is_inert () =
  Alcotest.(check bool) "disabled" false (Trace.is_enabled Trace.disabled);
  Alcotest.(check bool) "create enabled" true (Trace.is_enabled (Trace.create ()));
  let sp = Trace.start Trace.disabled "x" in
  Alcotest.(check bool) "null span" true (sp == Trace.null_span);
  Alcotest.(check int) "null id" 0 (Trace.id sp);
  Trace.attr sp "k" "v";
  Trace.attr_int sp "i" 1;
  Trace.attr_float sp "f" 1.5;
  Trace.finish sp;
  Trace.instant Trace.disabled "marker" [ ("a", "b") ];
  let got = Trace.in_span Trace.disabled "y" (fun inner -> inner == Trace.null_span) in
  Alcotest.(check bool) "in_span hands null span" true got;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.spans Trace.disabled));
  Alcotest.(check int) "no ambient current" 0 (Trace.current ())

let nesting_and_attrs () =
  let t = Trace.create () in
  let r =
    Trace.in_span t "outer" (fun outer ->
        Trace.attr_int outer "n" 3;
        Trace.in_span t "inner" (fun inner ->
            Alcotest.(check int) "ambient current is inner" (Trace.id inner)
              (Trace.current ());
            (Trace.id outer, Trace.id inner)))
  in
  let outer_id, inner_id = r in
  Alcotest.(check int) "current restored" 0 (Trace.current ());
  match Trace.spans t with
  | [ a; b ] ->
      (* sorted by start: outer began first *)
      Alcotest.(check string) "outer first" "outer" a.Trace.name;
      Alcotest.(check int) "outer is a root" 0 a.Trace.parent;
      Alcotest.(check int) "outer id" outer_id a.Trace.id;
      Alcotest.(check bool) "attr kept" true (List.mem ("n", "3") a.Trace.attrs);
      Alcotest.(check string) "inner second" "inner" b.Trace.name;
      Alcotest.(check int) "inner parents to outer" outer_id b.Trace.parent;
      Alcotest.(check int) "inner id" inner_id b.Trace.id
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

(* --- the span-tree invariants, under any --domains ----------------- *)

let span_end (r : Trace.span_record) = Int64.add r.start_ns r.dur_ns

let check_tree spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun (r : Trace.span_record) -> Hashtbl.replace by_id r.id r) spans;
  (* Every parented span's interval sits inside its parent's. *)
  List.iter
    (fun (r : Trace.span_record) ->
      if r.parent <> 0 then
        match Hashtbl.find_opt by_id r.parent with
        | None ->
            QCheck.Test.fail_reportf "span %d (%s) has unrecorded parent %d" r.id
              r.name r.parent
        | Some p ->
            if not (p.start_ns <= r.start_ns && span_end r <= span_end p) then
              QCheck.Test.fail_reportf
                "child %d (%s) [%Ld +%Ld] escapes parent %d (%s) [%Ld +%Ld]" r.id
                r.name r.start_ns r.dur_ns p.id p.name p.start_ns p.dur_ns)
    spans;
  (* On one track (= one recording domain) spans nest or are disjoint:
     bodies run on a single domain, so intervals cannot straddle. *)
  let tracks = Hashtbl.create 8 in
  List.iter
    (fun (r : Trace.span_record) ->
      let prev = Option.value (Hashtbl.find_opt tracks r.track) ~default:[] in
      Hashtbl.replace tracks r.track (r :: prev))
    spans;
  Hashtbl.iter
    (fun track rs ->
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                let disjoint =
                  span_end a <= b.Trace.start_ns || span_end b <= a.Trace.start_ns
                in
                let nested =
                  (a.Trace.start_ns <= b.Trace.start_ns && span_end b <= span_end a)
                  || (b.Trace.start_ns <= a.Trace.start_ns && span_end a <= span_end b)
                in
                if not (disjoint || nested) then
                  QCheck.Test.fail_reportf
                    "track %d: spans %d (%s) and %d (%s) overlap without nesting" track
                    a.Trace.id a.Trace.name b.Trace.id b.Trace.name)
              rest;
            pairs rest
      in
      pairs rs)
    tracks;
  true

let gen_case = QCheck.Gen.(pair (int_range 1 4) (int_range 2 5))

let qcheck_span_tree =
  QCheck.Test.make
    ~name:"sweep trace: parents contain children, per-track spans nest or are disjoint"
    ~count:8 (QCheck.make gen_case)
    (fun (domains, n) ->
      let tracer = Trace.create () in
      let config =
        {
          Engine.default_config with
          domains = Some domains;
          cache = Engine.No_cache;
          tracer;
        }
      in
      ignore (Engine.run ~config (points n));
      let spans = Trace.spans tracer in
      if List.length spans = 0 then QCheck.Test.fail_report "no spans recorded";
      check_tree spans)

(* --- Chrome trace-event export ------------------------------------ *)

(* One trace covering every instrumented layer: solver spans from a
   saturation search, sweep/point/attempt/sim spans from a cached
   engine run (cache.find/cache.store included). *)
let full_stack_trace dir =
  let tracer = Trace.create () in
  Trace.with_ambient tracer (fun () ->
      ignore (Eval.saturation_rate (Eval.workspace ~system:small_system ~message ())));
  let config =
    {
      Engine.default_config with
      domains = Some 2;
      cache = Engine.Cache_dir dir;
      tracer;
    }
  in
  ignore (Engine.run ~config (points 3));
  tracer

let chrome_roundtrip () =
  with_temp_dir @@ fun dir ->
  let tracer = full_stack_trace dir in
  let orig = Trace.spans tracer in
  let doc = Trace.to_chrome_json tracer in
  (* The document is loadable JSON with the Chrome shape: a
     traceEvents array of complete events plus thread_name metadata. *)
  (match Json.member "traceEvents" (Json.parse doc) with
  | Some (Json.Arr evs) ->
      let ph v e = Json.member "ph" e = Some (Json.Str v) in
      Alcotest.(check bool) "has complete events" true (List.exists (ph "X") evs);
      Alcotest.(check bool) "has thread_name metadata" true
        (List.exists (ph "M") evs);
      Alcotest.(check int) "one X event per span" (List.length orig)
        (List.length (List.filter (ph "X") evs))
  | _ -> Alcotest.fail "no traceEvents array");
  match Trace.spans_of_chrome_json doc with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok back ->
      Alcotest.(check int) "span count survives" (List.length orig) (List.length back);
      List.iter2
        (fun (a : Trace.span_record) (b : Trace.span_record) ->
          if a <> b then
            Alcotest.failf
              "span %d (%s) did not round-trip: [%Ld +%Ld] %d attrs vs [%Ld +%Ld] %d \
               attrs"
              a.id a.name a.start_ns a.dur_ns (List.length a.attrs) b.start_ns
              b.dur_ns (List.length b.attrs))
        orig back

let every_layer_appears () =
  with_temp_dir @@ fun dir ->
  let tracer = full_stack_trace dir in
  let names = List.map (fun (r : Trace.span_record) -> r.name) (Trace.spans tracer) in
  let prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  List.iter
    (fun layer ->
      Alcotest.(check bool) ("a " ^ layer ^ " span exists") true
        (List.exists (prefix layer) names))
    [ "sweep"; "point"; "attempt"; "sim."; "solver."; "cache." ]

(* The sweep runs its points on the domain pool: whichever domain
   claims a point, everything that point does nests under its [point]
   span, and every [point] span hangs off the [sweep] root. *)
let worker_spans_nest_under_point () =
  with_temp_dir @@ fun dir ->
  let tracer = Trace.create () in
  let config =
    { Engine.default_config with domains = Some 2; cache = Engine.Cache_dir dir; tracer }
  in
  let outcome = Engine.run ~config (points 4) in
  let spans = Trace.spans tracer in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (r : Trace.span_record) -> Hashtbl.replace by_id r.id r) spans;
  let named p = List.filter (fun (r : Trace.span_record) -> p r.name) spans in
  let root =
    match named (String.equal "sweep") with
    | [ r ] -> r
    | l -> Alcotest.failf "expected one sweep span, got %d" (List.length l)
  in
  Alcotest.(check int) "sweep is a root" 0 root.parent;
  let point_spans = named (String.equal "point") in
  Alcotest.(check int) "one point span per executed point"
    outcome.Engine.stats.Engine.executed (List.length point_spans);
  List.iter
    (fun (r : Trace.span_record) ->
      Alcotest.(check int) "point parents to the sweep root" root.id r.parent)
    point_spans;
  let rec under_point id =
    match Hashtbl.find_opt by_id id with
    | Some (r : Trace.span_record) -> r.name = "point" || under_point r.parent
    | None -> false
  in
  let is_sim name = String.length name > 4 && String.sub name 0 4 = "sim." in
  List.iter
    (fun (layer, p) ->
      match named p with
      | [] -> Alcotest.failf "no %s span recorded" layer
      | rs ->
          List.iter
            (fun (r : Trace.span_record) ->
              if not (under_point r.parent) then
                Alcotest.failf "%s span %d on track %d has no point ancestor" r.name r.id
                  r.track)
            rs)
    [ ("attempt", String.equal "attempt"); ("sim.*", is_sim); ("cache.store", String.equal "cache.store") ]

let garbage_rejected () =
  List.iter
    (fun doc ->
      match Trace.spans_of_chrome_json doc with
      | Ok _ -> Alcotest.failf "accepted %S" doc
      | Error _ -> ())
    [ ""; "nonsense"; "{}"; "{ \"traceEvents\": 3 }"; "{ \"traceEvents\": [ 4 ] }" ]

(* --- observer registry ------------------------------------------- *)

let observer_order_preserved () =
  (* Subscribers fire in registration order — the live progress line
     relies on it — and enough of them to force the growable array
     through several doublings.  Subscribing from inside an observer
     callback (re-entrant growth) must neither deadlock nor disturb
     the order of the in-flight notification. *)
  let tr = Trace.create () in
  let calls = ref [] in
  let n = 67 in
  for i = 0 to n - 1 do
    Trace.subscribe tr (fun _ -> calls := i :: !calls)
  done;
  Trace.in_span tr "probe" (fun _ -> ());
  Alcotest.(check (list int)) "registration order" (List.init n Fun.id)
    (List.rev !calls);
  calls := [];
  let late = ref 0 in
  Trace.subscribe tr (fun _ ->
      if !late = 0 then Trace.subscribe tr (fun _ -> incr late));
  Trace.in_span tr "again" (fun _ -> ());
  Alcotest.(check (list int)) "existing order stable" (List.init n Fun.id)
    (List.rev !calls);
  Alcotest.(check int) "late subscriber not called mid-flight" 0 !late;
  Trace.in_span tr "third" (fun _ -> ());
  Alcotest.(check int) "late subscriber called next span" 1 !late

(* --- the headline contract: tracing observes, never steers --------- *)

let traced_sweep_bit_identical () =
  with_temp_dir @@ fun dir_plain ->
  with_temp_dir @@ fun dir_traced ->
  let run tracer dir =
    let config =
      { Engine.default_config with domains = Some 2; cache = Engine.Cache_dir dir; tracer }
    in
    Engine.results_exn (Engine.run ~config (points 4))
  in
  let plain = run Trace.disabled dir_plain in
  let traced = run (Trace.create ()) dir_traced in
  (* Bit-for-bit result equality, NaN-proof: Marshal preserves float
     bit patterns, so equal bytes <=> equal bits. *)
  Alcotest.(check bool) "results bit-identical" true
    (Marshal.to_string plain [] = Marshal.to_string traced []);
  (* The traced run populated the same cache entries, byte for byte:
     the span tracer never bypasses or perturbs the cache. *)
  let entries dir = Sys.readdir dir |> Array.to_list |> List.sort compare in
  Alcotest.(check (list string)) "same cache entries" (entries dir_plain)
    (entries dir_traced);
  List.iter
    (fun f ->
      let slurp d = In_channel.with_open_bin (Filename.concat d f) In_channel.input_all in
      Alcotest.(check bool) ("entry " ^ f ^ " byte-identical") true
        (slurp dir_plain = slurp dir_traced))
    (entries dir_plain)

let () =
  Alcotest.run "trace"
    [
      ( "discipline",
        [
          Alcotest.test_case "disabled is inert" `Quick disabled_is_inert;
          Alcotest.test_case "nesting and attrs" `Quick nesting_and_attrs;
        ] );
      ( "tree",
        [
          QCheck_alcotest.to_alcotest qcheck_span_tree;
          Alcotest.test_case "worker spans nest under their point" `Quick
            worker_spans_nest_under_point;
        ] );
      ( "observers",
        [ Alcotest.test_case "registration order" `Quick observer_order_preserved ] );
      ( "chrome",
        [
          Alcotest.test_case "round trip" `Quick chrome_roundtrip;
          Alcotest.test_case "every layer appears" `Quick every_layer_appears;
          Alcotest.test_case "garbage rejected" `Quick garbage_rejected;
        ] );
      ( "transparency",
        [ Alcotest.test_case "bit-identical with cache" `Quick traced_sweep_bit_identical ]
      );
    ]

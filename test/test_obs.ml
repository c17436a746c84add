(* Tests for the telemetry subsystem: instrument semantics, the
   disabled-mode null sinks, snapshot merge, the JSON round-trip,
   Prometheus exposition and the ambient registry. *)

module M = Fatnet_obs.Metrics
module S = M.Snapshot

let check_float = Alcotest.(check (float 1e-12))

let find_exn ?labels snap name =
  match S.find ?labels snap name with
  | Some v -> v
  | None -> Alcotest.failf "series %s not found" name

let counter_exn ?labels snap name =
  match find_exn ?labels snap name with
  | S.Counter n -> n
  | _ -> Alcotest.failf "%s is not a counter" name

let gauge_exn ?labels snap name =
  match find_exn ?labels snap name with
  | S.Gauge g -> g
  | _ -> Alcotest.failf "%s is not a gauge" name

let histo_exn ?labels snap name =
  match find_exn ?labels snap name with
  | S.Histogram h -> h
  | _ -> Alcotest.failf "%s is not a histogram" name

let counter_semantics () =
  let t = M.create () in
  let c = M.counter t "events" in
  M.incr c;
  M.add c 41;
  Alcotest.(check int) "incr + add" 42 (counter_exn (M.snapshot t) "events");
  let c' = M.counter t "events" in
  M.incr c';
  Alcotest.(check int) "same identity, same instrument" 43
    (counter_exn (M.snapshot t) "events")

let gauge_semantics () =
  let t = M.create () in
  let g = M.gauge t "depth" in
  M.set g 3.;
  M.set_max g 1.;
  check_float "set_max keeps larger" 3. (gauge_exn (M.snapshot t) "depth");
  M.set_max g 7.;
  check_float "set_max takes larger" 7. (gauge_exn (M.snapshot t) "depth");
  M.set g 2.;
  check_float "set overwrites" 2. (gauge_exn (M.snapshot t) "depth")

let histogram_semantics () =
  let t = M.create () in
  let h = M.histogram t "lat" ~lo:0. ~hi:10. ~bins:5 in
  (* -1. is rejected at the boundary: a negative sample into a
     non-negative-range histogram is a broken clock, not data. *)
  List.iter (M.observe h) [ 0.5; 1.; 3.; -1.; 10.; 100. ];
  let s = histo_exn (M.snapshot t) "lat" in
  Alcotest.(check int) "count includes overflow, not rejects" 5 s.S.count;
  Alcotest.(check int) "negative rejected, no underflow" 0 s.S.underflow;
  Alcotest.(check int) "overflow" 2 s.S.overflow;
  Alcotest.(check int) "bin 0" 2 s.S.counts.(0);
  Alcotest.(check int) "bin 1" 1 s.S.counts.(1);
  check_float "sum" 114.5 s.S.sum

let observe_rejections () =
  let t = M.create () in
  let h = M.histogram t "lat" ~lo:0. ~hi:1. ~bins:2 in
  M.observe h nan;
  M.observe h (-1e-9);
  M.observe h (-0.) (* negative zero is zero: in range *);
  M.observe h 0.25;
  let s = histo_exn (M.snapshot t) "lat" in
  Alcotest.(check int) "NaN and negatives dropped" 2 s.S.count;
  Alcotest.(check int) "no underflow recorded" 0 s.S.underflow;
  check_float "sum untouched by rejects" 0.25 s.S.sum;
  (* A histogram whose range admits negative values still takes them:
     the guard is about non-negative ranges, not a sign ban. *)
  let signed = M.histogram t "delta" ~lo:(-1.) ~hi:1. ~bins:2 in
  M.observe signed (-0.5);
  M.observe signed (-5.);
  M.observe signed nan;
  let s = histo_exn (M.snapshot t) "delta" in
  Alcotest.(check int) "signed range accepts negatives" 2 s.S.count;
  Alcotest.(check int) "true underflow still counted" 1 s.S.underflow

let now_seconds_monotonic () =
  (* The daemon timestamps request arrival and batch walls with
     [now_seconds]; a wall-clock step (NTP, manual set) must never
     produce a negative duration.  The monotonic source guarantees
     non-decreasing reads; the epoch is arbitrary, so only
     differences are checked. *)
  let prev = ref (M.now_seconds ()) in
  for _ = 1 to 1000 do
    let t = M.now_seconds () in
    if t < !prev then Alcotest.failf "clock went backwards: %.17g < %.17g" t !prev;
    prev := t
  done;
  let t0 = M.now_seconds () in
  Unix.sleepf 0.01;
  let dt = M.now_seconds () -. t0 in
  Alcotest.(check bool) "sleep measured" true (dt >= 0.009 && dt < 10.)

let labels_distinguish () =
  let t = M.create () in
  let a = M.counter t "hits" ~labels:[ ("level", "0") ] in
  let b = M.counter t "hits" ~labels:[ ("level", "1") ] in
  M.incr a;
  M.add b 2;
  let snap = M.snapshot t in
  Alcotest.(check int) "level 0" 1 (counter_exn ~labels:[ ("level", "0") ] snap "hits");
  Alcotest.(check int) "level 1" 2 (counter_exn ~labels:[ ("level", "1") ] snap "hits");
  Alcotest.(check bool) "unlabelled absent" true (S.find snap "hits" = None)

let kind_mismatch_raises () =
  let t = M.create () in
  ignore (M.counter t "x");
  Alcotest.(check bool) "kind clash raises" true
    (match M.gauge t "x" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  ignore (M.histogram t "h" ~lo:0. ~hi:1. ~bins:4);
  Alcotest.(check bool) "bucket clash raises" true
    (match M.histogram t "h" ~lo:0. ~hi:2. ~bins:4 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let disabled_is_silent () =
  Alcotest.(check bool) "disabled" false (M.is_enabled M.disabled);
  Alcotest.(check bool) "create enabled" true (M.is_enabled (M.create ()));
  let c = M.counter M.disabled "events" in
  let g = M.gauge M.disabled "depth" in
  let h = M.histogram M.disabled "lat" ~lo:0. ~hi:1. ~bins:2 in
  M.incr c;
  M.add c 5;
  M.set g 1.;
  M.set_max g 9.;
  M.observe h 0.5;
  M.set_meta M.disabled "k" "v";
  Alcotest.(check bool) "snapshot stays empty" true (M.snapshot M.disabled = S.empty);
  (* Mismatched re-registration must not raise either: the disabled
     registry validates nothing, it only hands out sinks. *)
  ignore (M.histogram M.disabled "lat" ~lo:0. ~hi:99. ~bins:7)

let merge_semantics () =
  let mk f =
    let t = M.create () in
    f t;
    M.snapshot t
  in
  let a =
    mk (fun t ->
        M.add (M.counter t "c") 2;
        M.set (M.gauge t "g") 5.;
        M.observe (M.histogram t "h" ~lo:0. ~hi:4. ~bins:4) 1.5;
        M.set_meta t "who" "a";
        M.set_meta t "only_a" "1")
  in
  let b =
    mk (fun t ->
        M.add (M.counter t "c") 3;
        M.set (M.gauge t "g") 4.;
        M.observe (M.histogram t "h" ~lo:0. ~hi:4. ~bins:4) 1.7;
        M.observe (M.histogram t "h" ~lo:0. ~hi:4. ~bins:4) 9.;
        M.set_meta t "who" "b")
  in
  let m = S.merge a b in
  Alcotest.(check int) "counters add" 5 (counter_exn m "c");
  check_float "gauges keep max" 5. (gauge_exn m "g");
  let h = histo_exn m "h" in
  Alcotest.(check int) "histogram counts add" 3 h.S.count;
  Alcotest.(check int) "shared bin" 2 h.S.counts.(1);
  Alcotest.(check int) "overflow adds" 1 h.S.overflow;
  check_float "sums add" 12.2 h.S.sum;
  Alcotest.(check (option string)) "meta ties: second wins" (Some "b")
    (List.assoc_opt "who" m.S.meta);
  Alcotest.(check (option string)) "meta union" (Some "1") (List.assoc_opt "only_a" m.S.meta)

let merge_layout_mismatch () =
  let mk hi =
    let t = M.create () in
    M.observe (M.histogram t "h" ~lo:0. ~hi ~bins:4) 0.5;
    M.snapshot t
  in
  Alcotest.(check bool) "layout mismatch raises" true
    (match S.merge (mk 4.) (mk 5.) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let json_roundtrip () =
  let t = M.create () in
  M.set_meta t "scenario" "fig5 \"quoted\"\nline";
  M.add (M.counter t "c" ~help:"a counter") 7;
  M.set (M.gauge t "g" ~labels:[ ("phase", "drain") ]) 1.25e-9;
  M.set (M.gauge t "g_nan") nan;
  M.set (M.gauge t "g_inf") infinity;
  M.set (M.gauge t "g_ninf") neg_infinity;
  let h = M.histogram t "h" ~lo:0. ~hi:1. ~bins:3 ~help:"hist" in
  List.iter (M.observe h) [ 0.1; 0.5; 0.9; -2.; 3. ];
  let snap = M.snapshot t in
  match S.of_json (S.to_json snap) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok back ->
      Alcotest.(check bool) "meta survives" true (back.S.meta = snap.S.meta);
      Alcotest.(check int) "series count" (List.length snap.S.series)
        (List.length back.S.series);
      Alcotest.(check int) "counter" 7 (counter_exn back "c");
      check_float "tiny float exact" 1.25e-9 (gauge_exn ~labels:[ ("phase", "drain") ] back "g");
      Alcotest.(check bool) "nan" true (Float.is_nan (gauge_exn back "g_nan"));
      check_float "inf" infinity (gauge_exn back "g_inf");
      check_float "-inf" neg_infinity (gauge_exn back "g_ninf");
      Alcotest.(check bool) "histogram identical" true
        (histo_exn back "h" = histo_exn snap "h");
      (* A second round trip must be a fixed point. *)
      Alcotest.(check string) "stable encoding" (S.to_json snap) (S.to_json back)

let json_rejects_garbage () =
  let bad = [ ""; "nonsense"; "{}"; "{ \"fatnet_metrics_version\": 99 }"; "[1, 2" ] in
  List.iter
    (fun doc ->
      match S.of_json doc with
      | Ok _ -> Alcotest.failf "accepted %S" doc
      | Error _ -> ())
    bad

let prometheus_format () =
  let t = M.create () in
  M.add (M.counter t "c" ~help:"a counter") 7;
  M.set (M.gauge t "g" ~labels:[ ("phase", "drain") ]) 2.5;
  let h = M.histogram t "h" ~lo:0. ~hi:1. ~bins:2 in
  List.iter (M.observe h) [ 0.25; 0.75; -1.; 5. ];
  let body = S.to_prometheus (M.snapshot t) in
  let has needle =
    let n = String.length needle and l = String.length body in
    let rec go i = i + n <= l && (String.sub body i n = needle || go (i + 1)) in
    Alcotest.(check bool) ("contains " ^ needle) true (go 0)
  in
  has "# TYPE c counter";
  has "c 7";
  has "# HELP c a counter";
  has "g{phase=\"drain\"} 2.5";
  (* -1. was rejected at the boundary (non-negative range); +Inf
     covers the overflow *)
  has "h_bucket{le=\"0.5\"} 1";
  has "h_bucket{le=\"1\"} 2";
  has "h_bucket{le=\"+Inf\"} 3";
  has "h_count 3"

let duplicate_series_error () =
  let t = M.create () in
  ignore (M.counter t "dup" ~labels:[ ("a", "1") ]);
  match M.gauge t "dup" ~labels:[ ("a", "2") ] with
  | _ -> Alcotest.fail "gauge under a counter's name accepted"
  | exception Invalid_argument msg ->
      let has needle =
        let n = String.length needle and l = String.length msg in
        let rec go i = i + n <= l && (String.sub msg i n = needle || go (i + 1)) in
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" msg needle)
          true (go 0)
      in
      has "duplicate series dup";
      has "already registered as a counter"

let replace ~needle ~by s =
  let n = String.length needle in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = needle then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let json_unknown_kind_qualified () =
  let t = M.create () in
  M.add (M.counter t "c") 1;
  M.set (M.gauge t "g") 2.;
  let doc =
    replace ~needle:"\"type\": \"gauge\"" ~by:"\"type\": \"sparkline\""
      (S.to_json (M.snapshot t))
  in
  match S.of_json doc with
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error e ->
      let has needle =
        let n = String.length needle and l = String.length e in
        let rec go i = i + n <= l && (String.sub e i n = needle || go (i + 1)) in
        Alcotest.(check bool) (Printf.sprintf "%S mentions %S" e needle) true (go 0)
      in
      (* The error names the offending series and field, .scn-style. *)
      has "series[";
      has "unknown metric kind \"sparkline\""

let prometheus_escaping () =
  let t = M.create () in
  M.set
    (M.gauge t "g" ~help:"line1\nline2 \"quoted\" back\\slash"
       ~labels:[ ("path", "a\\b\"c\nd") ])
    1.;
  let body = S.to_prometheus (M.snapshot t) in
  let has needle =
    let n = String.length needle and l = String.length body in
    let rec go i = i + n <= l && (String.sub body i n = needle || go (i + 1)) in
    Alcotest.(check bool) ("contains " ^ String.escaped needle) true (go 0)
  in
  (* Label values escape backslash, double quote and newline. *)
  has "g{path=\"a\\\\b\\\"c\\nd\"} 1";
  (* HELP text escapes backslash and newline but leaves quotes alone. *)
  has "# HELP g line1\\nline2 \"quoted\" back\\\\slash"

let ambient_restores () =
  let t = M.create () in
  Alcotest.(check bool) "default ambient disabled" false (M.is_enabled (M.ambient ()));
  M.with_ambient t (fun () ->
      Alcotest.(check bool) "swapped in" true (M.ambient () == t);
      M.incr (M.counter (M.ambient ()) "seen"));
  Alcotest.(check bool) "restored" false (M.is_enabled (M.ambient ()));
  Alcotest.(check int) "recorded through ambient" 1 (counter_exn (M.snapshot t) "seen");
  (match M.with_ambient t (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "restored after raise" false (M.is_enabled (M.ambient ()))

let absorb_folds_in () =
  let root = M.create () in
  M.add (M.counter root "c") 1;
  let worker = M.create () in
  M.add (M.counter worker "c") 2;
  M.observe (M.histogram worker "h" ~lo:0. ~hi:1. ~bins:2) 0.75;
  M.absorb root (M.snapshot worker);
  let snap = M.snapshot root in
  Alcotest.(check int) "counters folded" 3 (counter_exn snap "c");
  Alcotest.(check int) "new instrument created" 1 (histo_exn snap "h").S.count;
  (* absorbing into disabled is a no-op, not an error *)
  M.absorb M.disabled (M.snapshot worker);
  Alcotest.(check bool) "disabled unchanged" true (M.snapshot M.disabled = S.empty)

let domain_counters () =
  let t = M.create () in
  let c = M.counter t "n" in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              M.incr c
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "atomic across domains" 40_000 (counter_exn (M.snapshot t) "n")

(* Json.shortest_float against a frozen copy of the Printf cascade
   it replaced: the same bytes for every finite float. *)
let printf_shortest_float f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s
  else
    let s = Printf.sprintf "%.16g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let gen_format_float =
  let open QCheck.Gen in
  let signed g = map2 (fun neg x -> if neg then -.x else x) bool g in
  let finite_bits =
    map
      (fun b ->
        let f = Int64.float_of_bits b in
        if Float.is_finite f then f else Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL))
      int64
  in
  let near base = signed (map (fun k -> base +. float_of_int k) (int_range (-1000) 1000)) in
  let subnormal =
    signed (map (fun b -> Int64.float_of_bits b) (map Int64.of_int (int_range 1 ((1 lsl 52) - 1))))
  in
  frequency
    [
      (4, finite_bits);
      (2, near 1e15);
      (2, near 9007199254740992.);
      (1, signed (map float_of_int (int_range 0 1_000_000)));
      (1, subnormal);
      (1, oneofl [ 0.; -0.; 1e15; -1e15; 999999999999999.; Float.max_float; Float.min_float;
                   Float.epsilon; 1e-5; 0.1; 1e21; 123456789012345.6 ]);
    ]

let qcheck_shortest_float_bytes =
  QCheck.Test.make ~name:"Json.shortest_float = the Printf cascade, byte for byte" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_format_float)
    (fun f -> Fatnet_obs.Json.shortest_float f = printf_shortest_float f)

let () =
  Alcotest.run "obs"
    [
      ( "instruments",
        [
          Alcotest.test_case "counter" `Quick counter_semantics;
          Alcotest.test_case "gauge" `Quick gauge_semantics;
          Alcotest.test_case "histogram" `Quick histogram_semantics;
          Alcotest.test_case "observe rejects NaN and negatives" `Quick
            observe_rejections;
          Alcotest.test_case "now_seconds is monotonic" `Quick now_seconds_monotonic;
          Alcotest.test_case "labels" `Quick labels_distinguish;
          Alcotest.test_case "kind mismatch" `Quick kind_mismatch_raises;
          Alcotest.test_case "duplicate series error" `Quick duplicate_series_error;
          Alcotest.test_case "domain counters" `Quick domain_counters;
        ] );
      ( "disabled",
        [ Alcotest.test_case "null sinks" `Quick disabled_is_silent ] );
      ( "snapshot",
        [
          Alcotest.test_case "merge" `Quick merge_semantics;
          Alcotest.test_case "merge layout mismatch" `Quick merge_layout_mismatch;
          Alcotest.test_case "absorb" `Quick absorb_folds_in;
        ] );
      ( "export",
        [
          Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "json rejects garbage" `Quick json_rejects_garbage;
          Alcotest.test_case "json unknown kind" `Quick json_unknown_kind_qualified;
          Alcotest.test_case "prometheus" `Quick prometheus_format;
          Alcotest.test_case "prometheus escaping" `Quick prometheus_escaping;
          QCheck_alcotest.to_alcotest qcheck_shortest_float_bytes;
        ] );
      ( "ambient",
        [ Alcotest.test_case "swap and restore" `Quick ambient_restores ] );
    ]

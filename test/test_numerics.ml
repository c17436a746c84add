(* Tests for the numeric substrate: compensated summation, float
   helpers, root finding and interpolation. *)

module FU = Fatnet_numerics.Float_utils
module Sum = Fatnet_numerics.Summation
module Solver = Fatnet_numerics.Solver
module Interp = Fatnet_numerics.Interp
module Memo = Fatnet_numerics.Memo
module Metrics = Fatnet_obs.Metrics

let check_float = Alcotest.(check (float 1e-9))

let approx_equal_basics () =
  Alcotest.(check bool) "equal" true (FU.approx_equal 1. 1.);
  Alcotest.(check bool) "close rel" true (FU.approx_equal 1. (1. +. 1e-12));
  Alcotest.(check bool) "far" false (FU.approx_equal 1. 1.1);
  Alcotest.(check bool) "abs tolerance near zero" true (FU.approx_equal 0. 1e-13)

let relative_error_cases () =
  check_float "10% error" 0.1 (FU.relative_error ~expected:10. ~actual:11.);
  check_float "zero expected falls back to abs" 0.5 (FU.relative_error ~expected:0. ~actual:0.5)

let safe_div_cases () =
  check_float "normal" 2. (FU.safe_div 4. 2.);
  Alcotest.(check bool) "pos/0 = inf" true (FU.safe_div 1. 0. = infinity);
  Alcotest.(check bool) "neg/0 = -inf" true (FU.safe_div (-1.) 0. = neg_infinity);
  check_float "0/0 = 0" 0. (FU.safe_div 0. 0.)

let clamp_cases () =
  check_float "below" 0. (FU.clamp ~lo:0. ~hi:1. (-3.));
  check_float "above" 1. (FU.clamp ~lo:0. ~hi:1. 7.);
  check_float "inside" 0.5 (FU.clamp ~lo:0. ~hi:1. 0.5);
  Alcotest.check_raises "bad bounds" (Invalid_argument "Float_utils.clamp: lo > hi") (fun () ->
      ignore (FU.clamp ~lo:1. ~hi:0. 0.5))

let array_sums () =
  check_float "empty sum" 0. (FU.sum_array [||]);
  check_float "singleton sum" 3.5 (FU.sum_array [| 3.5 |]);
  check_float "several" 6. (FU.sum_array [| 1.; 2.; 3. |]);
  check_float "empty mean" 0. (FU.mean_of_array [||]);
  check_float "singleton mean" 3.5 (FU.mean_of_array [| 3.5 |]);
  check_float "several mean" 2. (FU.mean_of_array [| 1.; 2.; 3. |]);
  (* sum_array folds left-to-right, like the list folds it replaces
     in the model layer — same bits, not merely close. *)
  let xs = [| 1e16; 1.; -1e16; 1. |] in
  Alcotest.(check int64) "left-to-right association"
    (Int64.bits_of_float (List.fold_left ( +. ) 0. (Array.to_list xs)))
    (Int64.bits_of_float (FU.sum_array xs))

let compensated_sum_beats_naive () =
  (* 1 + 1e-16 added 10^7 times loses everything naively but not
     compensated. *)
  let tiny = 1e-16 in
  let n = 1_000_000 in
  let acc = Sum.create () in
  Sum.add acc 1.;
  for _ = 1 to n do
    Sum.add acc tiny
  done;
  let compensated = Sum.total acc -. 1. in
  let naive = ref 1. in
  for _ = 1 to n do
    naive := !naive +. tiny
  done;
  let naive_err = Float.abs (!naive -. 1. -. (float_of_int n *. tiny)) in
  let comp_err = Float.abs (compensated -. (float_of_int n *. tiny)) in
  Alcotest.(check bool) "compensated at least as accurate" true (comp_err <= naive_err);
  (* the compensated total is accurate to ~1 ulp of the total, i.e.
     ~1e-16 here, while the naive sum loses the entire 1e-10 *)
  Alcotest.(check bool) "compensated accurate to ulp" true (comp_err < 1e-15);
  Alcotest.(check bool) "naive loses the increments" true (naive_err > 1e-12)

let sum_over_matches_list () =
  let f i = float_of_int i *. 0.1 in
  check_float "sum_over" (Sum.sum (List.init 10 f)) (Sum.sum_over 10 f)

let sum_agrees_with_naive =
  QCheck.Test.make ~name:"compensated sum matches naive on benign input" ~count:300
    QCheck.(list (float_range (-1000.) 1000.))
    (fun xs ->
      let naive = List.fold_left ( +. ) 0. xs in
      Float.abs (Sum.sum xs -. naive) <= 1e-9 *. Float.max 1. (Float.abs naive))

let bisect_finds_sqrt2 () =
  let f x = (x *. x) -. 2. in
  let root = Solver.bisect ~f ~lo:0. ~hi:2. () in
  Alcotest.(check (float 1e-9)) "sqrt 2" (sqrt 2.) root

let bisect_rejects_bad_bracket () =
  Alcotest.check_raises "no sign change"
    (Invalid_argument "Solver.bisect: no sign change on bracket") (fun () ->
      ignore (Solver.bisect ~f:(fun x -> x +. 10.) ~lo:0. ~hi:1. ()))

let bisect_endpoint_root () =
  check_float "root at lo" 0. (Solver.bisect ~f:(fun x -> x) ~lo:0. ~hi:1. ())

let boundary_finds_threshold () =
  let threshold = 0.37 in
  let b = Solver.boundary ~pred:(fun x -> x >= threshold) ~lo:0. ~hi:1. () in
  Alcotest.(check (float 1e-9)) "threshold" threshold b

let upper_bracket_doubles () =
  let x = Solver.find_upper_bracket ~f:(fun x -> x > 50.) ~lo:1. () in
  Alcotest.(check bool) "first doubling past 50" true (x = 64.)

let boundary_warm_cold_matches_canonical () =
  let pred x = x >= 0.37 in
  let cold =
    let hi = Solver.find_upper_bracket ~f:pred ~lo:1e-9 () in
    Solver.boundary ~pred ~lo:0. ~hi ()
  in
  let state = Solver.bracket_state () in
  let first = Solver.boundary_warm ~state ~pred ~lo:0. () in
  Alcotest.(check int64) "first solve runs the cold sequence bit-for-bit"
    (Int64.bits_of_float cold) (Int64.bits_of_float first)

let boundary_warm_tracks_threshold () =
  let state = Solver.bracket_state () in
  let solve t = Solver.boundary_warm ~state ~pred:(fun x -> x >= t) ~lo:0. () in
  (* Small drifts both ways, big jumps both ways, and an exact
     repeat — the bracket follows every time. *)
  List.iter
    (fun t -> Alcotest.(check (float 1e-9)) (Printf.sprintf "threshold %g" t) t (solve t))
    [ 0.37; 0.3704; 0.3697; 0.52; 0.11; 0.11 ];
  Solver.bracket_reset state;
  Alcotest.(check (float 1e-9)) "after reset" 0.25 (solve 0.25)

let boundary_warm_rejects_true_at_lo () =
  let state = Solver.bracket_state () in
  ignore (Solver.boundary_warm ~state ~pred:(fun x -> x >= 0.5) ~lo:0.1 ());
  Alcotest.check_raises "pred true everywhere above lo"
    (Invalid_argument "Solver.boundary_warm: pred already true at lo")
    (fun () -> ignore (Solver.boundary_warm ~state ~pred:(fun _ -> true) ~lo:0.1 ()))

let bisect_property =
  QCheck.Test.make ~name:"bisect root has small residual" ~count:200
    QCheck.(float_range 0.1 100.)
    (fun target ->
      let f x = x -. target in
      let root = Solver.bisect ~f ~lo:0. ~hi:200. () in
      Float.abs (f root) < 1e-6)

let interp_exact_at_knots () =
  let f = Interp.create [| (0., 1.); (1., 3.); (2., 2.) |] in
  check_float "knot 0" 1. (Interp.eval f 0.);
  check_float "knot 1" 3. (Interp.eval f 1.);
  check_float "knot 2" 2. (Interp.eval f 2.)

let interp_linear_between () =
  let f = Interp.create [| (0., 0.); (2., 4.) |] in
  check_float "midpoint" 2. (Interp.eval f 1.);
  check_float "quarter" 1. (Interp.eval f 0.5)

let interp_constant_outside () =
  let f = Interp.create [| (0., 5.); (1., 6.) |] in
  check_float "below" 5. (Interp.eval f (-10.));
  check_float "above" 6. (Interp.eval f 10.)

let interp_rejects_duplicates () =
  Alcotest.check_raises "duplicate x" (Invalid_argument "Interp.create: duplicate x value")
    (fun () -> ignore (Interp.create [| (1., 0.); (1., 1.) |]))

let interp_sorts_input () =
  let f = Interp.create [| (2., 20.); (0., 0.); (1., 10.) |] in
  check_float "sorted eval" 15. (Interp.eval f 1.5)

let interp_within_envelope =
  QCheck.Test.make ~name:"interpolation stays within the y envelope" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 2 10) (pair (float_range 0. 100.) (float_range (-50.) 50.))) (float_range 0. 100.))
    (fun (pts, x) ->
      (* deduplicate x values to satisfy the precondition *)
      let module FM = Map.Make (Float) in
      let uniq = List.fold_left (fun m (x, y) -> FM.add x y m) FM.empty pts in
      let pts = FM.bindings uniq in
      QCheck.assume (List.length pts >= 2);
      let f = Interp.create (Array.of_list pts) in
      let ys = List.map snd pts in
      let lo = List.fold_left Float.min infinity ys in
      let hi = List.fold_left Float.max neg_infinity ys in
      let y = Interp.eval f x in
      y >= lo -. 1e-9 && y <= hi +. 1e-9)

(* ---- sharded memo ---- *)

let memo_find_store_roundtrip () =
  let m = Memo.create () in
  Alcotest.(check (option int)) "empty" None (Memo.find m ~key:"a" ~bits:1L);
  Memo.store m ~key:"a" ~bits:1L 10;
  Memo.store m ~key:"a" ~bits:2L 20;
  Memo.store m ~key:"b" ~bits:1L 30;
  Alcotest.(check (option int)) "a/1" (Some 10) (Memo.find m ~key:"a" ~bits:1L);
  Alcotest.(check (option int)) "a/2" (Some 20) (Memo.find m ~key:"a" ~bits:2L);
  Alcotest.(check (option int)) "b/1" (Some 30) (Memo.find m ~key:"b" ~bits:1L);
  Alcotest.(check (option int)) "b/2" None (Memo.find m ~key:"b" ~bits:2L);
  Memo.store m ~key:"a" ~bits:1L 11;
  Alcotest.(check (option int)) "overwrite" (Some 11) (Memo.find m ~key:"a" ~bits:1L);
  Alcotest.(check int) "entries" 3 (Memo.length m);
  let hits = Memo.hits m and misses = Memo.misses m in
  Memo.clear m;
  Alcotest.(check int) "cleared" 0 (Memo.length m);
  Alcotest.(check (option int)) "gone" None (Memo.find m ~key:"a" ~bits:1L);
  Alcotest.(check int) "hit totals survive clear" hits (Memo.hits m);
  Alcotest.(check int) "miss totals count the post-clear probe" (misses + 1)
    (Memo.misses m)

let memo_find_or_compute () =
  let m = Memo.create ~shards:3 () in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  Alcotest.(check int) "computed" 42 (Memo.find_or_compute m ~key:"k" ~bits:7L compute);
  Alcotest.(check int) "memoised" 42 (Memo.find_or_compute m ~key:"k" ~bits:7L compute);
  Alcotest.(check int) "thunk ran once" 1 !calls;
  Alcotest.(check int) "one hit" 1 (Memo.hits m);
  Alcotest.(check int) "one miss" 1 (Memo.misses m);
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Memo.hit_rate m);
  let empty = Memo.create () in
  Alcotest.(check (float 0.)) "no lookups, rate 0" 0. (Memo.hit_rate empty)

let memo_metric_counters () =
  let reg = Metrics.create () in
  Metrics.with_ambient reg (fun () ->
      let m = Memo.create ~metric:"model_memo" () in
      ignore (Memo.find_or_compute m ~key:"k" ~bits:1L (fun () -> 1.));
      ignore (Memo.find_or_compute m ~key:"k" ~bits:1L (fun () -> 1.));
      ignore (Memo.find m ~key:"other" ~bits:1L));
  let count name =
    match Metrics.Snapshot.find (Metrics.snapshot reg) name with
    | Some (Metrics.Snapshot.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "ambient hits" 1 (count "model_memo_hits");
  Alcotest.(check int) "ambient misses" 2 (count "model_memo_misses")

let memo_counters_follow_ambient () =
  (* The memo holds its counters per ambient registry: switching the
     ambient registry must move the counting to the new one, and
     switching back must resume the old one. *)
  let a = Metrics.create () and b = Metrics.create () in
  let m = Memo.create ~metric:"model_memo" () in
  let lookup () = ignore (Memo.find_or_compute m ~key:"k" ~bits:1L (fun () -> 1.)) in
  Metrics.with_ambient a lookup;
  Metrics.with_ambient b (fun () -> lookup (); lookup ());
  Metrics.with_ambient a lookup;
  lookup ();
  let count reg name =
    match Metrics.Snapshot.find (Metrics.snapshot reg) name with
    | Some (Metrics.Snapshot.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "a: the miss" 1 (count a "model_memo_misses");
  Alcotest.(check int) "a: one hit after the switch back" 1 (count a "model_memo_hits");
  Alcotest.(check int) "b: two hits" 2 (count b "model_memo_hits");
  Alcotest.(check int) "b: no miss" 0 (count b "model_memo_misses");
  Alcotest.(check int) "every lookup in the totals" 5 (Memo.hits m + Memo.misses m)

let memo_parallel_hammer () =
  (* Many domains racing over a small key set: the value for a key is
     a pure function of the key, so every lookup must return that
     value and the table must converge to exactly the key set. *)
  let m = Memo.create ~shards:4 () in
  let keys = 16 and rounds = 500 in
  let value k b = (k * 1000) + Int64.to_int b in
  let worker seed () =
    for i = 0 to rounds - 1 do
      let k = (i + seed) mod keys in
      let bits = Int64.of_int (k mod 3) in
      let got =
        Memo.find_or_compute m ~key:(string_of_int k) ~bits (fun () ->
            value k bits)
      in
      if got <> value k bits then failwith "memo returned a foreign value"
    done
  in
  let domains = List.init 3 (fun d -> Domain.spawn (worker (d * 5))) in
  worker 1 ();
  List.iter Domain.join domains;
  Alcotest.(check int) "one entry per key" keys (Memo.length m);
  for k = 0 to keys - 1 do
    let bits = Int64.of_int (k mod 3) in
    Alcotest.(check (option int))
      (Printf.sprintf "key %d" k)
      (Some (value k bits))
      (Memo.find m ~key:(string_of_int k) ~bits)
  done

let memo_capacity_bound () =
  let m = Memo.create ~shards:1 ~capacity:4 () in
  Alcotest.(check (option int)) "capacity accessor" (Some 4) (Memo.capacity m);
  Alcotest.(check (option int)) "unbounded has none" None
    (Memo.capacity (Memo.create ()));
  for k = 0 to 9 do
    Memo.store m ~key:(string_of_int k) ~bits:0L k
  done;
  Alcotest.(check int) "bounded at capacity" 4 (Memo.length m);
  Alcotest.(check int) "evictions counted" 6 (Memo.evictions m);
  (* The newest insert always survives its own insertion. *)
  Alcotest.(check (option int)) "newest survives" (Some 9)
    (Memo.find m ~key:"9" ~bits:0L);
  (* Overwriting a resident key neither grows nor evicts. *)
  Memo.store m ~key:"9" ~bits:0L 99;
  Alcotest.(check int) "overwrite keeps size" 4 (Memo.length m);
  Alcotest.(check int) "overwrite evicts nothing" 6 (Memo.evictions m);
  Memo.clear m;
  Alcotest.(check int) "cleared" 0 (Memo.length m);
  Memo.store m ~key:"fresh" ~bits:0L 1;
  Alcotest.(check (option int)) "usable after clear" (Some 1)
    (Memo.find m ~key:"fresh" ~bits:0L);
  Alcotest.check_raises "capacity < 1 rejected"
    (Invalid_argument "Memo.create: capacity must be >= 1") (fun () ->
      ignore (Memo.create ~capacity:0 ()))

let memo_second_chance_protects_hot () =
  (* Fill a 4-slot shard, keep hitting one key, and stream strangers
     through: the clock hand must skip the re-armed hot entry every
     lap, so it survives arbitrarily many evictions.  ("hot" is not
     placed in slot 0: a freshly filled ring is fully armed, so the
     very first sweep disarms everything and falls back to FIFO,
     taking slot 0 — that victim is "a".) *)
  let m = Memo.create ~shards:1 ~capacity:4 () in
  List.iter (fun k -> Memo.store m ~key:k ~bits:0L 0) [ "a"; "hot"; "b"; "c" ];
  for i = 0 to 19 do
    Alcotest.(check (option int))
      (Printf.sprintf "hot alive at round %d" i)
      (Some 0)
      (Memo.find m ~key:"hot" ~bits:0L);
    Memo.store m ~key:(Printf.sprintf "stranger%d" i) ~bits:0L i
  done;
  Alcotest.(check (option int)) "hot survived 20 evictions" (Some 0)
    (Memo.find m ~key:"hot" ~bits:0L);
  Alcotest.(check int) "still at capacity" 4 (Memo.length m);
  Alcotest.(check int) "20 evictions" 20 (Memo.evictions m)

let memo_eviction_metric () =
  let reg = Metrics.create () in
  Metrics.with_ambient reg (fun () ->
      let m = Memo.create ~shards:1 ~capacity:2 ~metric:"serve_memo" () in
      for k = 0 to 4 do
        Memo.store m ~key:(string_of_int k) ~bits:0L k
      done);
  match Metrics.Snapshot.find (Metrics.snapshot reg) "serve_memo_evictions" with
  | Some (Metrics.Snapshot.Counter n) ->
      Alcotest.(check int) "ambient eviction counter" 3 n
  | _ -> Alcotest.fail "serve_memo_evictions counter missing"

let memo_capacity_parallel_hammer () =
  (* The bounded-memo analogue of the hammer above: domains race over
     a key population larger than the total capacity, so evictions
     happen constantly under contention.  The memo may forget, but it
     must never return a foreign value, exceed its bound, or lose an
     eviction count. *)
  let m = Memo.create ~shards:2 ~capacity:8 () in
  let keys = 64 and rounds = 2_000 in
  let value k b = (k * 1000) + Int64.to_int b in
  let worker seed () =
    for i = 0 to rounds - 1 do
      let k = (i * 7) + seed land (keys - 1) in
      let k = k land (keys - 1) in
      let bits = Int64.of_int (k mod 3) in
      let got =
        Memo.find_or_compute m ~key:(string_of_int k) ~bits (fun () ->
            value k bits)
      in
      if got <> value k bits then failwith "bounded memo returned a foreign value"
    done
  in
  let domains = List.init 3 (fun d -> Domain.spawn (worker (d * 11))) in
  worker 1 ();
  List.iter Domain.join domains;
  Alcotest.(check bool) "within bound" true (Memo.length m <= 2 * 8);
  Alcotest.(check bool) "evictions happened" true (Memo.evictions m > 0);
  (* Whatever survived must still be the right value for its key. *)
  for k = 0 to keys - 1 do
    let bits = Int64.of_int (k mod 3) in
    match Memo.find m ~key:(string_of_int k) ~bits with
    | None -> ()
    | Some v ->
        Alcotest.(check int) (Printf.sprintf "survivor %d" k) (value k bits) v
  done

let memo_spreads_both_key_shapes () =
  (* The daemon's keys share one string and differ in [bits] (its λ
     axis); a sweep's differ in the string at constant [bits].  Both
     shapes must reach every shard: 64 shards of capacity 8 fill to
     exactly 512 entries only if every shard is stored into, so a
     hash that leaves either half of the key out of the shard bits
     shows up as a short [length]. *)
  let n = 20_000 in
  let shapes =
    [
      ( "shared string, distinct bits",
        fun i -> ("c0ffee-scenario-key", Int64.bits_of_float (float_of_int (i + 1) *. 1e-8)) );
      ("distinct strings, bits 0", fun i -> (Printf.sprintf "point-%d" i, 0L));
    ]
  in
  List.iter
    (fun (shape, key_of) ->
      let m = Memo.create () in
      for i = 0 to n - 1 do
        let key, bits = key_of i in
        Memo.store m ~key ~bits i
      done;
      for i = 0 to n - 1 do
        let key, bits = key_of i in
        if Memo.find m ~key ~bits <> Some i then Alcotest.failf "%s: key %d lost" shape i
      done;
      Alcotest.(check int) (shape ^ ": length") n (Memo.length m);
      let m = Memo.create ~capacity:8 () in
      for i = 0 to n - 1 do
        let key, bits = key_of i in
        Memo.store m ~key ~bits i
      done;
      Alcotest.(check int) (shape ^ ": every shard full") 512 (Memo.length m);
      Alcotest.(check int) (shape ^ ": evictions") (n - 512) (Memo.evictions m))
    shapes

let () =
  Alcotest.run "numerics"
    [
      ( "float_utils",
        [
          Alcotest.test_case "approx_equal" `Quick approx_equal_basics;
          Alcotest.test_case "relative_error" `Quick relative_error_cases;
          Alcotest.test_case "safe_div" `Quick safe_div_cases;
          Alcotest.test_case "clamp" `Quick clamp_cases;
          Alcotest.test_case "array sums" `Quick array_sums;
        ] );
      ( "summation",
        [
          Alcotest.test_case "compensated beats naive" `Quick compensated_sum_beats_naive;
          Alcotest.test_case "sum_over" `Quick sum_over_matches_list;
          QCheck_alcotest.to_alcotest sum_agrees_with_naive;
        ] );
      ( "solver",
        [
          Alcotest.test_case "sqrt 2" `Quick bisect_finds_sqrt2;
          Alcotest.test_case "bad bracket" `Quick bisect_rejects_bad_bracket;
          Alcotest.test_case "endpoint root" `Quick bisect_endpoint_root;
          Alcotest.test_case "boundary" `Quick boundary_finds_threshold;
          Alcotest.test_case "upper bracket" `Quick upper_bracket_doubles;
          Alcotest.test_case "warm first solve = cold" `Quick
            boundary_warm_cold_matches_canonical;
          Alcotest.test_case "warm tracks threshold" `Quick boundary_warm_tracks_threshold;
          Alcotest.test_case "warm rejects pred true at lo" `Quick
            boundary_warm_rejects_true_at_lo;
          QCheck_alcotest.to_alcotest bisect_property;
        ] );
      ( "memo",
        [
          Alcotest.test_case "find/store roundtrip" `Quick memo_find_store_roundtrip;
          Alcotest.test_case "find_or_compute" `Quick memo_find_or_compute;
          Alcotest.test_case "ambient metric counters" `Quick memo_metric_counters;
          Alcotest.test_case "counters follow the ambient registry" `Quick
            memo_counters_follow_ambient;
          Alcotest.test_case "parallel hammer" `Quick memo_parallel_hammer;
          Alcotest.test_case "capacity bound" `Quick memo_capacity_bound;
          Alcotest.test_case "second chance protects hot keys" `Quick
            memo_second_chance_protects_hot;
          Alcotest.test_case "eviction metric" `Quick memo_eviction_metric;
          Alcotest.test_case "bounded parallel hammer" `Quick
            memo_capacity_parallel_hammer;
          Alcotest.test_case "both key shapes reach every shard" `Quick
            memo_spreads_both_key_shapes;
        ] );
      ( "interp",
        [
          Alcotest.test_case "exact at knots" `Quick interp_exact_at_knots;
          Alcotest.test_case "linear between" `Quick interp_linear_between;
          Alcotest.test_case "constant outside" `Quick interp_constant_outside;
          Alcotest.test_case "rejects duplicates" `Quick interp_rejects_duplicates;
          Alcotest.test_case "sorts input" `Quick interp_sorts_input;
          QCheck_alcotest.to_alcotest interp_within_envelope;
        ] );
    ]

(* Tests for the statistics substrate: Welford moments, P² quantiles,
   summaries and batch-means confidence intervals. *)

module W = Fatnet_stats.Welford
module Q = Fatnet_stats.Quantile
module B = Fatnet_stats.Batch_means

let check_float = Alcotest.(check (float 1e-9))

let naive_mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let naive_variance xs =
  let m = naive_mean xs in
  let n = List.length xs in
  if n < 2 then 0.
  else
    List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs /. float_of_int (n - 1)

let welford_empty () =
  let w = W.create () in
  Alcotest.(check int) "count" 0 (W.count w);
  check_float "mean" 0. (W.mean w);
  check_float "variance" 0. (W.variance w)

let welford_single () =
  let w = W.create () in
  W.add w 5.;
  check_float "mean" 5. (W.mean w);
  check_float "variance of one sample" 0. (W.variance w);
  check_float "min" 5. (W.min_value w);
  check_float "max" 5. (W.max_value w)

let welford_known () =
  let w = W.create () in
  List.iter (W.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5. (W.mean w);
  check_float "variance" 4.571428571428571 (W.variance w);
  check_float "min" 2. (W.min_value w);
  check_float "max" 9. (W.max_value w)

let welford_matches_naive =
  QCheck.Test.make ~name:"welford matches two-pass moments" ~count:300
    QCheck.(list_of_size (Gen.int_range 2 100) (float_range (-100.) 100.))
    (fun xs ->
      let w = W.create () in
      List.iter (W.add w) xs;
      Float.abs (W.mean w -. naive_mean xs) < 1e-9
      && Float.abs (W.variance w -. naive_variance xs) < 1e-6)

let welford_merge_matches_sequential =
  QCheck.Test.make ~name:"merged welford equals sequential" ~count:300
    QCheck.(pair (list (float_range (-10.) 10.)) (list (float_range (-10.) 10.)))
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] && ys <> []);
      let a = W.create () and b = W.create () and all = W.create () in
      List.iter (W.add a) xs;
      List.iter (W.add b) ys;
      List.iter (W.add all) (xs @ ys);
      let m = W.merge a b in
      W.count m = W.count all
      && Float.abs (W.mean m -. W.mean all) < 1e-9
      && Float.abs (W.variance m -. W.variance all) < 1e-6)

let quantile_small_samples_exact () =
  let q = Q.create ~q:0.5 in
  List.iter (Q.add q) [ 3.; 1.; 2. ];
  check_float "median of three" 2. (Q.estimate q)

let quantile_median_uniform () =
  let q = Q.create ~q:0.5 in
  let rng = Fatnet_prng.Rng.create ~seed:3L () in
  for _ = 1 to 50_000 do
    Q.add q (Fatnet_prng.Rng.float rng)
  done;
  Alcotest.(check bool) "median near 0.5" true (Float.abs (Q.estimate q -. 0.5) < 0.02)

let quantile_p99_exponential () =
  let q = Q.create ~q:0.99 in
  let rng = Fatnet_prng.Rng.create ~seed:4L () in
  for _ = 1 to 100_000 do
    Q.add q (Fatnet_prng.Rng.exponential rng ~rate:1.)
  done;
  (* true p99 of Exp(1) is ln(100) ≈ 4.605 *)
  Alcotest.(check bool) "p99 near ln 100" true (Float.abs (Q.estimate q -. 4.605) < 0.35)

let quantile_vs_exact =
  QCheck.Test.make ~name:"P² near exact quantile on big samples" ~count:20
    QCheck.(pair (int_range 1 1000) (float_range 0.1 0.9))
    (fun (seed, target) ->
      let rng = Fatnet_prng.Rng.create ~seed:(Int64.of_int seed) () in
      let n = 5000 in
      let samples = Array.init n (fun _ -> Fatnet_prng.Rng.float rng) in
      let q = Q.create ~q:target in
      Array.iter (Q.add q) samples;
      let sorted = Array.copy samples in
      Array.sort Float.compare sorted;
      let exact = Q.exact_of_sorted sorted ~q:target in
      Float.abs (Q.estimate q -. exact) < 0.05)

(* The per-point sweep summaries report P² medians and p99s, so pin
   both against the exact sorted-sample quantiles on randomized,
   latency-shaped (skewed, heavy-tailed) inputs.  The tolerance band
   is in {e rank} space: the estimate must fall between the exact
   q−0.05 and q+0.05 sample quantiles (and inside the sample range).
   A value-space band is meaningless on a heavy tail — the spread is
   dominated by the max while the p99 neighbourhood is sparse; an
   empirical scan of 4 000 seeds at n ≥ 300 puts the worst rank error
   at ≈ 0.034 for both quantiles, so 0.05 is a safe band. *)
let quantile_median_p99_vs_exact =
  let rank_band sorted ~q estimate =
    let n = Array.length sorted in
    let lo = Q.exact_of_sorted sorted ~q:(Float.max 0. (q -. 0.05)) in
    let hi = Q.exact_of_sorted sorted ~q:(Float.min 1. (q +. 0.05)) in
    lo <= estimate && estimate <= hi
    && sorted.(0) <= estimate && estimate <= sorted.(n - 1)
  in
  QCheck.Test.make ~name:"P² median and p99 within bands of exact quantiles" ~count:60
    QCheck.(triple (int_range 1 100_000) (int_range 300 4_000) (float_range 0.5 50.))
    (fun (seed, n, scale) ->
      let rng = Fatnet_prng.Rng.create ~seed:(Int64.of_int seed) () in
      let sample () =
        (* bimodal: a light cluster plus an exponential tail *)
        if Fatnet_prng.Rng.float rng < 0.3 then scale *. Fatnet_prng.Rng.float rng
        else scale +. Fatnet_prng.Rng.exponential rng ~rate:(1. /. scale)
      in
      let samples = Array.init n (fun _ -> sample ()) in
      let p50 = Q.create ~q:0.5 and p99 = Q.create ~q:0.99 in
      Array.iter
        (fun x ->
          Q.add p50 x;
          Q.add p99 x)
        samples;
      let sorted = Array.copy samples in
      Array.sort Float.compare sorted;
      rank_band sorted ~q:0.5 (Q.estimate p50)
      && rank_band sorted ~q:0.99 (Q.estimate p99))

let quantile_merged_weighting () =
  (* Small samples estimate exactly, so the weighted combination is
     computable by hand: 3 samples with median 2 and 1 sample with
     median 10 give (3*2 + 1*10)/4. *)
  let a = Q.create ~q:0.5 and b = Q.create ~q:0.5 in
  List.iter (Q.add a) [ 3.; 1.; 2. ];
  Q.add b 10.;
  check_float "count-weighted" 4. (Q.merged_estimate [ a; b ]);
  check_float "singleton is estimate" 2. (Q.merged_estimate [ a ]);
  check_float "empty estimators ignored" 2. (Q.merged_estimate [ a; Q.create ~q:0.5 ]);
  Alcotest.(check bool) "all empty is nan" true
    (Float.is_nan (Q.merged_estimate [ Q.create ~q:0.5 ]));
  Alcotest.(check bool) "no estimators is nan" true (Float.is_nan (Q.merged_estimate []))

let quantile_merged_replications () =
  (* The cross-replication use: per-replication P² medians over the
     same distribution combine to the distribution's median. *)
  let reps =
    List.init 4 (fun i ->
        let q = Q.create ~q:0.5 in
        let rng = Fatnet_prng.Rng.create ~seed:(Int64.of_int (100 + i)) () in
        for _ = 1 to 10_000 do
          Q.add q (Fatnet_prng.Rng.float rng)
        done;
        q)
  in
  Alcotest.(check bool) "merged median near 0.5" true
    (Float.abs (Q.merged_estimate reps -. 0.5) < 0.02)

let welford_of_stats_roundtrip =
  QCheck.Test.make ~name:"of_stats reconstructs reported moments" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 80) (float_range (-50.) 50.))
    (fun xs ->
      let w = W.create () in
      List.iter (W.add w) xs;
      let r =
        W.of_stats ~n:(W.count w) ~mean:(W.mean w) ~variance:(W.variance w)
          ~min:(W.min_value w) ~max:(W.max_value w)
      in
      W.count r = W.count w
      && Float.abs (W.mean r -. W.mean w) < 1e-12
      && Float.abs (W.variance r -. W.variance w) < 1e-9
      && W.min_value r = W.min_value w
      && W.max_value r = W.max_value w)

let exact_of_sorted_cases () =
  check_float "median of evens" 2.5 (Q.exact_of_sorted [| 1.; 2.; 3.; 4. |] ~q:0.5);
  check_float "min" 1. (Q.exact_of_sorted [| 1.; 2.; 3. |] ~q:0.);
  check_float "max" 3. (Q.exact_of_sorted [| 1.; 2.; 3. |] ~q:1.)

let batch_means_mean () =
  let b = B.create ~batch_size:10 in
  for i = 1 to 100 do
    B.add b (float_of_int (i mod 10))
  done;
  Alcotest.(check int) "batches" 10 (B.completed_batches b);
  check_float "grand mean" 4.5 (B.mean b)

let batch_means_ci_covers_iid () =
  (* For IID uniform samples the 95% CI over batch means should cover
     the true mean 0.5 most of the time; with a fixed seed just check
     this instance. *)
  let b = B.create ~batch_size:100 in
  let rng = Fatnet_prng.Rng.create ~seed:21L () in
  for _ = 1 to 10_000 do
    B.add b (Fatnet_prng.Rng.float rng)
  done;
  let hw = B.half_width b ~confidence:0.95 in
  Alcotest.(check bool) "half width positive" true (hw > 0.);
  Alcotest.(check bool) "CI covers the truth" true (Float.abs (B.mean b -. 0.5) <= hw)

let batch_means_needs_two_batches () =
  let b = B.create ~batch_size:1000 in
  B.add b 1.;
  Alcotest.(check bool) "nan before two batches" true
    (Float.is_nan (B.half_width b ~confidence:0.95))

let summary_roundtrip () =
  let w = W.create () in
  List.iter (W.add w) [ 1.; 2.; 3. ];
  let s = Fatnet_stats.Summary.of_welford w ~p50:2. ~p90:2.8 ~p99:3. ~p999:3. in
  Alcotest.(check int) "count" 3 s.Fatnet_stats.Summary.count;
  check_float "mean" 2. s.Fatnet_stats.Summary.mean;
  check_float "p50" 2. s.Fatnet_stats.Summary.p50

(* The pooled-quantile property behind CI-adaptive replication
   merging: per-replication P² estimates, combined count-weighted,
   must land in a rank band of the exact quantile of the *pooled*
   sample.  The band (±0.08 in rank space, on top of P²'s own ±0.05
   band pinned above) absorbs both the P² error of each replication
   and the weighting-vs-pooling gap; an empirical scan over the
   generator's seed space puts the worst observed rank error well
   inside it. *)
let merged_estimate_vs_exact_pooled =
  QCheck.Test.make ~name:"merged P² estimate tracks the exact pooled quantile" ~count:40
    QCheck.(
      quad (int_range 1 100_000) (int_range 2 6) (int_range 400 2_000)
        (oneofl [ 0.5; 0.9; 0.99 ]))
    (fun (seed, reps, n, q) ->
      let rng = Fatnet_prng.Rng.create ~seed:(Int64.of_int seed) () in
      let scale = 10. in
      let sample () =
        if Fatnet_prng.Rng.float rng < 0.3 then scale *. Fatnet_prng.Rng.float rng
        else scale +. Fatnet_prng.Rng.exponential rng ~rate:(1. /. scale)
      in
      let all = ref [] in
      let estimators =
        List.init reps (fun _ ->
            let est = Q.create ~q in
            for _ = 1 to n do
              let x = sample () in
              all := x :: !all;
              Q.add est x
            done;
            est)
      in
      let sorted = Array.of_list !all in
      Array.sort Float.compare sorted;
      let merged = Q.merged_estimate estimators in
      let lo = Q.exact_of_sorted sorted ~q:(Float.max 0. (q -. 0.08)) in
      let hi = Q.exact_of_sorted sorted ~q:(Float.min 1. (q +. 0.08)) in
      lo <= merged && merged <= hi)

(* Summary.merge: moments pool exactly (Chan/Welford), quantiles are
   the documented count-weighted estimates. *)
module S = Fatnet_stats.Summary

let summary_merge_property =
  QCheck.Test.make ~name:"Summary.merge pools moments exactly, quantiles by count" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 60) (float_range 0. 50.))
        (list_of_size (Gen.int_range 1 60) (float_range 0. 50.)))
    (fun (xs, ys) ->
      let mk samples p =
        let w = W.create () in
        List.iter (W.add w) samples;
        S.of_welford w ~p50:p ~p90:p ~p99:p ~p999:p
      in
      let a = mk xs 1. and b = mk ys 3. in
      let m = S.merge [ a; b ] in
      let pooled = W.create () in
      List.iter (W.add pooled) (xs @ ys);
      let na = float_of_int (List.length xs) and nb = float_of_int (List.length ys) in
      m.S.count = List.length xs + List.length ys
      && Float.abs (m.S.mean -. W.mean pooled) < 1e-9
      && Float.abs (m.S.stddev -. sqrt (W.variance pooled)) < 1e-9
      && m.S.min = W.min_value pooled
      && m.S.max = W.max_value pooled
      && Float.abs (m.S.p50 -. (((na *. 1.) +. (nb *. 3.)) /. (na +. nb))) < 1e-12
      && Float.abs (m.S.p999 -. (((na *. 1.) +. (nb *. 3.)) /. (na +. nb))) < 1e-12)

let summary_merge_edges () =
  let m = S.merge [] in
  Alcotest.(check int) "empty merge count" 0 m.S.count;
  check_float "empty merge mean" S.empty.S.mean m.S.mean;
  Alcotest.(check bool) "empty merge min is nan" true (Float.is_nan m.S.min);
  Alcotest.(check bool) "empty merge p99 is nan" true (Float.is_nan m.S.p99);
  let w = W.create () in
  List.iter (W.add w) [ 1.; 2.; 3. ];
  let s = S.of_welford w ~p50:2. ~p90:2.8 ~p99:3. ~p999:3. in
  (* zero-count summaries contribute nothing *)
  let m = S.merge [ S.empty; s; S.empty ] in
  Alcotest.(check int) "zero-count skipped" 3 m.S.count;
  check_float "mean unchanged" 2. m.S.mean;
  check_float "p50 unchanged" 2. m.S.p50;
  (* single-summary merge is the identity on every field *)
  let one = S.merge [ s ] in
  Alcotest.(check int) "singleton count" s.S.count one.S.count;
  check_float "singleton mean" s.S.mean one.S.mean;
  check_float "singleton p999" s.S.p999 one.S.p999;
  (* a live summary without quantile state (e.g. the per-class
     intra/inter summaries) pools moments but not quantiles *)
  let nq = S.of_welford w ~p50:nan ~p90:nan ~p99:nan ~p999:nan in
  let m2 = S.merge [ s; nq ] in
  Alcotest.(check int) "moments pooled" 6 m2.S.count;
  check_float "quantile from the carrying summary" 2. m2.S.p50;
  let m3 = S.merge [ nq; nq ] in
  Alcotest.(check bool) "no quantile state anywhere stays nan" true (Float.is_nan m3.S.p50)

let summary_quantile_accessor () =
  let w = W.create () in
  List.iter (W.add w) [ 1.; 2.; 3. ];
  let s = S.of_welford w ~p50:2. ~p90:2.8 ~p99:3. ~p999:3.5 in
  check_float "0.5" 2. (S.quantile s 0.5);
  check_float "0.9" 2.8 (S.quantile s 0.9);
  check_float "0.99" 3. (S.quantile s 0.99);
  check_float "0.999" 3.5 (S.quantile s 0.999);
  Alcotest.check_raises "off the ladder"
    (Invalid_argument "Summary.quantile: 0.95 is not one of p50/p90/p99/p999") (fun () ->
      ignore (S.quantile s 0.95))

let () =
  Alcotest.run "stats"
    [
      ( "welford",
        [
          Alcotest.test_case "empty" `Quick welford_empty;
          Alcotest.test_case "single" `Quick welford_single;
          Alcotest.test_case "known moments" `Quick welford_known;
          QCheck_alcotest.to_alcotest welford_matches_naive;
          QCheck_alcotest.to_alcotest welford_merge_matches_sequential;
          QCheck_alcotest.to_alcotest welford_of_stats_roundtrip;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "small exact" `Quick quantile_small_samples_exact;
          Alcotest.test_case "median uniform" `Quick quantile_median_uniform;
          Alcotest.test_case "p99 exponential" `Quick quantile_p99_exponential;
          Alcotest.test_case "exact_of_sorted" `Quick exact_of_sorted_cases;
          Alcotest.test_case "merged weighting" `Quick quantile_merged_weighting;
          Alcotest.test_case "merged replications" `Quick quantile_merged_replications;
          QCheck_alcotest.to_alcotest quantile_vs_exact;
          QCheck_alcotest.to_alcotest quantile_median_p99_vs_exact;
        ] );
      ( "batch_means",
        [
          Alcotest.test_case "grand mean" `Quick batch_means_mean;
          Alcotest.test_case "ci covers iid" `Quick batch_means_ci_covers_iid;
          Alcotest.test_case "needs two batches" `Quick batch_means_needs_two_batches;
        ] );
      ( "summary",
        [
          Alcotest.test_case "roundtrip" `Quick summary_roundtrip;
          Alcotest.test_case "merge edge cases" `Quick summary_merge_edges;
          Alcotest.test_case "quantile accessor" `Quick summary_quantile_accessor;
          QCheck_alcotest.to_alcotest summary_merge_property;
          QCheck_alcotest.to_alcotest merged_estimate_vs_exact_pooled;
        ] );
    ]

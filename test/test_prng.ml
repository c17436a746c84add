(* Tests for the PRNG substrate: SplitMix64/xoshiro256++ reference
   vectors and distribution sanity. *)

(* Reference outputs for SplitMix64 with seed 0, from the published
   C reference implementation (the vectors used by PractRand). *)
let splitmix_reference () =
  let g = Fatnet_prng.Splitmix64.create 0L in
  let expected =
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ]
  in
  List.iteri
    (fun i e ->
      Alcotest.(check int64)
        (Printf.sprintf "splitmix64 word %d" i)
        e (Fatnet_prng.Splitmix64.next g))
    expected

let splitmix_float_range () =
  let g = Fatnet_prng.Splitmix64.create 42L in
  for _ = 1 to 1000 do
    let x = Fatnet_prng.Splitmix64.next_float g in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let xoshiro_deterministic () =
  let a = Fatnet_prng.Xoshiro.create 99L in
  let b = Fatnet_prng.Xoshiro.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Fatnet_prng.Xoshiro.next a)
      (Fatnet_prng.Xoshiro.next b)
  done

let xoshiro_copy_independent () =
  let a = Fatnet_prng.Xoshiro.create 7L in
  let b = Fatnet_prng.Xoshiro.copy a in
  let xa = Fatnet_prng.Xoshiro.next a in
  let xb = Fatnet_prng.Xoshiro.next b in
  Alcotest.(check int64) "copy starts at same state" xa xb;
  ignore (Fatnet_prng.Xoshiro.next a);
  (* advancing a does not affect b *)
  let xa2 = Fatnet_prng.Xoshiro.next a in
  let xb2 = Fatnet_prng.Xoshiro.next b in
  Alcotest.(check bool) "streams diverge after unequal draws" true (xa2 <> xb2 || xa2 = xb2);
  ignore (xa2, xb2)

let xoshiro_jump_decorrelates () =
  let a = Fatnet_prng.Xoshiro.create 7L in
  let b = Fatnet_prng.Xoshiro.copy a in
  Fatnet_prng.Xoshiro.jump b;
  let equal = ref 0 in
  for _ = 1 to 100 do
    if Fatnet_prng.Xoshiro.next a = Fatnet_prng.Xoshiro.next b then incr equal
  done;
  Alcotest.(check bool) "jumped stream differs" true (!equal < 5)

let xoshiro_int_bounds =
  QCheck.Test.make ~name:"xoshiro int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Fatnet_prng.Xoshiro.create (Int64.of_int seed) in
      let v = Fatnet_prng.Xoshiro.int g bound in
      v >= 0 && v < bound)

let rng_uniform_mean () =
  let rng = Fatnet_prng.Rng.create ~seed:5L () in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Fatnet_prng.Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "uniform mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let rng_exponential_mean () =
  let rng = Fatnet_prng.Rng.create ~seed:6L () in
  let rate = 4. in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Fatnet_prng.Rng.exponential rng ~rate
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean near 1/rate" true (Float.abs (mean -. 0.25) < 0.01)

let rng_exponential_positive =
  QCheck.Test.make ~name:"exponential variates are positive" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Fatnet_prng.Rng.create ~seed:(Int64.of_int seed) () in
      Fatnet_prng.Rng.exponential rng ~rate:0.001 >= 0.)

let rng_int_excluding =
  QCheck.Test.make ~name:"int_excluding never returns the excluded value" ~count:1000
    QCheck.(pair small_int (int_range 2 50))
    (fun (seed, n) ->
      let rng = Fatnet_prng.Rng.create ~seed:(Int64.of_int seed) () in
      let excluding = Fatnet_prng.Rng.int rng n in
      let v = Fatnet_prng.Rng.int_excluding rng n ~excluding in
      v <> excluding && v >= 0 && v < n)

let rng_bernoulli_extremes () =
  let rng = Fatnet_prng.Rng.create ~seed:8L () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Fatnet_prng.Rng.bernoulli rng ~p:1.);
    Alcotest.(check bool) "p=0 always false" false (Fatnet_prng.Rng.bernoulli rng ~p:0.)
  done

let rng_split_decorrelates () =
  let a = Fatnet_prng.Rng.create ~seed:11L () in
  let b = Fatnet_prng.Rng.split a in
  let equal = ref 0 in
  for _ = 1 to 100 do
    if Fatnet_prng.Rng.float a = Fatnet_prng.Rng.float b then incr equal
  done;
  Alcotest.(check bool) "split stream differs" true (!equal = 0)

let rng_shuffle_permutes () =
  let rng = Fatnet_prng.Rng.create ~seed:12L () in
  let a = Array.init 100 (fun i -> i) in
  Fatnet_prng.Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 100 (fun i -> i)) sorted

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "reference vectors" `Quick splitmix_reference;
          Alcotest.test_case "float range" `Quick splitmix_float_range;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick xoshiro_deterministic;
          Alcotest.test_case "copy" `Quick xoshiro_copy_independent;
          Alcotest.test_case "jump decorrelates" `Quick xoshiro_jump_decorrelates;
          QCheck_alcotest.to_alcotest xoshiro_int_bounds;
        ] );
      ( "rng",
        [
          Alcotest.test_case "uniform mean" `Quick rng_uniform_mean;
          Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
          Alcotest.test_case "bernoulli extremes" `Quick rng_bernoulli_extremes;
          Alcotest.test_case "split decorrelates" `Quick rng_split_decorrelates;
          Alcotest.test_case "shuffle permutes" `Quick rng_shuffle_permutes;
          QCheck_alcotest.to_alcotest rng_exponential_positive;
          QCheck_alcotest.to_alcotest rng_int_excluding;
        ] );
    ]

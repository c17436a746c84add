(* Tests for the benchmark's own helpers: the percentile rule, the
   closed-loop capacity measurement, the seeded schedule and the
   model-error metric. *)

open Perfbench
module Rng = Fatnet_prng.Rng

let float_eq = Alcotest.float 0.

(* ---- Pct ---- *)

let test_tail_level () =
  let level n = Option.value (Pct.tail_level n) ~default:Float.nan in
  Alcotest.check float_eq "n=1000: p99 has exactly ten beyond" 0.99 (level 1000);
  Alcotest.check float_eq "n=999: p99 has nine beyond, falls to p90" 0.9 (level 999);
  Alcotest.check float_eq "n=10000: p99.9" 0.999 (level 10000);
  Alcotest.check float_eq "n=20: only the median" 0.5 (level 20);
  Alcotest.(check bool) "n=19: nothing qualifies" true (Pct.tail_level 19 = None);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Pct.beyond ~n:1000 0.99)

let test_percentiles () =
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check float_eq "median of 1..100" 50. (Pct.median a);
  Alcotest.check float_eq "p99 of 1..100" 99. (Pct.percentile a 0.99);
  (* 0.9 *. 10. is 9.000000000000002 in floats: the rank must still be 9 *)
  Alcotest.check float_eq "p90 of 1..10" 9.
    (Pct.percentile (Array.init 10 (fun i -> float_of_int (i + 1))) 0.9);
  let s = Pct.summarize (Array.init 1000 float_of_int) in
  Alcotest.(check int) "summary keeps the sample count" 1000 s.Pct.n;
  Alcotest.check float_eq "summary tail level" 0.99 s.Pct.tail_q;
  Alcotest.check float_eq "summary tail value" 989. s.Pct.tail

(* ---- Capacity: the closed loop against a fake server ---- *)

(* A fake daemon in a child process with a known service rate: one
   connection, one answer line per request line, each after sleeping
   [service] seconds, so it answers at most 1 / [service] requests a
   second.  On end of input it writes how many it answered and, by its
   own clock, how long it spent serving them (sleep and write, not
   waiting for requests) to [stats]. *)
let fake_server ~service ~stats path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 1;
  match Unix.fork () with
  | 0 ->
      let fd, _ = Unix.accept sock in
      let buf = Bytes.create 65536 in
      let answered = ref 0 and busy = ref 0. in
      let rec serve () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | k ->
            for i = 0 to k - 1 do
              if Bytes.get buf i = '\n' then begin
                let t0 = Unix.gettimeofday () in
                Unix.sleepf service;
                ignore (Unix.write_substring fd "{\"ok\": true}\n" 0 13);
                incr answered;
                busy := !busy +. (Unix.gettimeofday () -. t0)
              end
            done;
            serve ()
      in
      (try serve () with Unix.Unix_error _ -> ());
      Out_channel.with_open_text stats (fun oc -> Printf.fprintf oc "%d %.9f" !answered !busy);
      Unix._exit 0
  | pid ->
      Unix.close sock;
      pid

(* One closed-loop trial of [secs] against a fake server answering in
   1 ms: the client's result, the server's answer count and its own
   rate while busy. *)
let closed_against_fake ~secs ~lines =
  let tmp name =
    Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "perfbench-%d.%s" (Unix.getpid ()) name)
  in
  let path = tmp "sock" and stats = tmp "stats" in
  let pid = fake_server ~service:0.001 ~stats path in
  let c = Client.open_ path in
  let r = Client.run_closed c ~window:4 ~secs ~lines in
  Client.close c;
  ignore (Unix.waitpid [] pid);
  let served, busy =
    In_channel.with_open_text stats (fun ic ->
        Scanf.bscanf (Scanf.Scanning.from_channel ic) "%d %f" (fun n t -> (n, t)))
  in
  List.iter (fun f -> try Unix.unlink f with Unix.Unix_error _ -> ()) [ path; stats ];
  (r, served, float_of_int served /. busy)

let test_closed_loop_capacity () =
  (* Each answer costs at least 1 ms of sleep, so no trial measures
     above 1000/s (1001 allows for the two processes' clocks).  The
     client turns an answer into the next request in microseconds, so
     it keeps the server busy: the capacity it reads is the server's
     own busy rate, and it holds a small share of the window.  A trial
     the host stalls the client in is retried, up to three in all. *)
  let lines = Array.init 2000 (Printf.sprintf {|{"id": %d}|}) in
  let rec go k =
    let r, served, own = closed_against_fake ~secs:1.0 ~lines in
    let n = Array.length r.Client.sent in
    Alcotest.(check bool) "the lines sent, in order" true (r.Client.sent = Array.sub lines 0 n);
    Alcotest.(check int) "every request answered" n r.Client.step.Client.answered;
    Alcotest.(check int) "the server answered each once" n served;
    Alcotest.(check bool) "no refused connection" false r.Client.step.Client.refused;
    Alcotest.(check bool) "a turnaround for every request, none negative" true
      (Array.for_all (fun l -> l >= 0.) r.Client.step.Client.late);
    let x = r.Client.throughput in
    Alcotest.(check bool) (Printf.sprintf "throughput %.0f/s at most 1000/s" x) true (x <= 1001.);
    let near = Float.abs (x -. own) <= 0.15 *. own and share = r.Client.client_share in
    if (near && share <= Client.max_client_share) || k = 3 then begin
      Alcotest.(check bool)
        (Printf.sprintf "throughput %.0f/s within 15%% of the server's own %.0f/s" x own) true near;
      Alcotest.(check bool)
        (Printf.sprintf "client held %.3f of the window" share)
        true
        (share <= Client.max_client_share)
    end
    else go (k + 1)
  in
  go 1

let test_closed_loop_short_of_lines () =
  (* Out of requests before the time is up, the trial ends early and
     still measures the server: every line sent and answered once. *)
  let lines = Array.make 50 "{}" in
  let r, served, own = closed_against_fake ~secs:1.0 ~lines in
  Alcotest.(check int) "every line sent" 50 (Array.length r.Client.sent);
  Alcotest.(check int) "the server answered each once" 50 served;
  let x = r.Client.throughput in
  Alcotest.(check bool) (Printf.sprintf "throughput %.0f/s at most 1000/s" x) true (x <= 1001.);
  Alcotest.(check bool) (Printf.sprintf "throughput %.0f/s at most the server's own %.0f/s" x own) true
    (x <= own *. 1.001)

(* ---- Sched ---- *)

let stream seed =
  let rng = Rng.create ~seed () in
  let due = Sched.poisson rng ~rate:500. ~n:2000 in
  let f = Sched.fresh rng ~hi:1e-3 in
  let lambdas = Array.init 2000 (fun _ -> Sched.draw f) in
  (due, lambdas)

let test_schedule_reproduces () =
  let d1, l1 = stream 42L and d2, l2 = stream 42L in
  Alcotest.(check bool) "same seed, same due times (bitwise)" true (d1 = d2);
  Alcotest.(check bool) "same seed, same lambdas (bitwise)" true (l1 = l2);
  let d3, _ = stream 43L in
  Alcotest.(check bool) "another seed, another schedule" true (d1 <> d3);
  let mean_gap = d1.(1999) /. 2000. in
  Alcotest.(check bool) (Printf.sprintf "mean gap %.5f near 1/500" mean_gap) true
    (Float.abs (mean_gap -. 0.002) < 0.0002);
  let sorted = Array.copy l1 in
  Array.sort compare sorted;
  let distinct = ref true in
  Array.iteri (fun i x -> if i > 0 && sorted.(i - 1) = x then distinct := false) sorted;
  Alcotest.(check bool) "fresh lambdas never repeat" true !distinct;
  Alcotest.(check bool) "fresh lambdas in (0, hi)" true
    (Array.for_all (fun l -> l > 0. && l < 1e-3) l1)

let test_mix_and_lines () =
  let quantiles = List.length (List.filter (fun i -> Sched.op_of_index i = Sched.Quantile) (List.init 800 Fun.id)) in
  Alcotest.(check int) "7 latency : 1 quantile" 100 quantiles;
  Alcotest.(check string) "latency line" {|{"id": 3, "op": "latency", "lambda": 0.0001}|}
    (Sched.line ~id:3 Sched.Latency 1e-4);
  Alcotest.(check string) "quantile line" {|{"id": 4, "op": "quantile", "lambda": 0.0001, "q": 0.99}|}
    (Sched.line ~id:4 Sched.Quantile 1e-4)

(* ---- Model_err ---- *)

let csv =
  "x,sim,sim p99,model,model p99\n\
   1e-4,100,200,90,150\n\
   2e-4,50,100,55,100\n"

let test_model_err () =
  match Model_err.of_csv csv with
  | Error e -> Alcotest.fail e
  | Ok e ->
      Alcotest.(check int) "points" 2 e.Model_err.points;
      Alcotest.(check (float 1e-12)) "mean error" 0.1 e.Model_err.mean_err;
      Alcotest.(check (float 1e-12)) "p99 error" 0.125 e.Model_err.p99_err

let test_model_err_rejects () =
  let bad s = Result.is_error (Model_err.of_csv s) in
  Alcotest.(check bool) "missing column" true (bad "x,sim,model\n1,2,3\n");
  Alcotest.(check bool) "no rows" true (bad "x,sim,sim p99,model,model p99\n");
  Alcotest.(check bool) "unreadable cell" true (bad "x,sim,sim p99,model,model p99\n1,a,2,3,4\n");
  Alcotest.(check bool) "blank model cell (saturated)" true
    (bad "x,sim,sim p99,model,model p99\n1,2,3,,4\n")

let () =
  Alcotest.run "perfbench"
    [
      ( "pct",
        [ Alcotest.test_case "ten samples beyond" `Quick test_tail_level;
          Alcotest.test_case "nearest rank" `Quick test_percentiles ] );
      ( "capacity",
        [ Alcotest.test_case "closed loop against a fake server" `Quick test_closed_loop_capacity;
          Alcotest.test_case "closed loop out of lines" `Quick test_closed_loop_short_of_lines ] );
      ( "schedule",
        [ Alcotest.test_case "seeded schedule reproduces" `Quick test_schedule_reproduces;
          Alcotest.test_case "op mix and request lines" `Quick test_mix_and_lines ] );
      ( "model_err",
        [ Alcotest.test_case "hand-made CSV" `Quick test_model_err;
          Alcotest.test_case "malformed CSV" `Quick test_model_err_rejects ] );
    ]

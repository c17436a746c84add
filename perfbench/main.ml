(* The repository benchmark: two workloads run against the built
   `fatnet` and `experiments` binaries from outside the program.

     main.exe --workload oracle-miss|oracle-hit
              --seed N --seconds S --trace 0|1

   With --trace 0 it prints every end-to-end metric; with --trace 1 it
   runs the workload once more with the program's own --trace and
   --metrics output on, replays the same inputs through each layer's
   public functions, and prints the per-layer metrics.  Either way
   the last stdout line is the JSON result
   {"correct", "attempted", "failed", "metrics"}.  The lines before it
   hold the host facts and, on end-to-end runs, a report of what is
   measured but not gated (tail percentiles with their sample counts,
   voided samples).  Why each workload and metric exists is in
   NOTES.md next to this file. *)

module Json = Fatnet_obs.Json
module Scenario = Fatnet_scenario.Scenario
module Oracle = Fatnet_serve.Oracle
module Protocol = Fatnet_serve.Protocol
module Rng = Fatnet_prng.Rng
open Perfbench

let fatnet = "_build/default/bin/fatnet.exe"
let experiments = "_build/default/bin/experiments.exe"
let fig5 = "examples/fig5.scn"
let reference_csv = "perfbench/reference/fig5-light.csv"
let now = Proc.now
let median_of l = Pct.median (Array.of_list l)

(* A sample, and whether the host left it alone (see [undisturbed]). *)
type 'a sample = { v : 'a; clean : bool }

let values samples = List.map (fun s -> s.v) samples

(* The samples a metric is taken over: the clean ones when at least
   half are, otherwise all of them. *)
let usable samples =
  let c = List.filter (fun s -> s.clean) samples in
  values (if 2 * List.length c >= List.length samples then c else samples)

(* ------------------------------------------------------------------ *)
(* Fixed load points.  Offered rates are absolute, so they stay put
   when capacity moves; NOTES.md records how they were chosen. *)

type rates = {
  low : float;
  mid : float;
  limit : float;  (* seconds *)
  window : int;  (* closed-loop requests in flight *)
  closed_lines : int;  (* requests rendered for a closed-loop trial *)
  trial : float;  (* seconds per trial *)
  reps : int;  (* trials of each kind per round *)
}

(* Trials are short where requests are fast, so that many trials
   sample the run, and long enough on oracle-miss for a p50 over at
   least 85 requests.  A closed-loop trial ends early when its
   rendered requests run out, which leaves room for about three times
   the capacity this commit measures. *)
let miss_rates =
  { low = 170.; mid = 300.; limit = 0.020; window = 8; closed_lines = 3000; trial = 0.5; reps = 2 }

let hit_rates =
  { low = 12000.; mid = 24000.; limit = 0.001; window = 32; closed_lines = 40_000; trial = 0.1; reps = 6 }

let daemon_domains = 1
let sweep_domains = 2

(* The load generator runs on CPU 0 and a daemon on CPU 1, kept from
   halting between requests by an idle-priority busy loop there. *)
let client_cpu = "0"
let daemon_cpu = "1"

(* ------------------------------------------------------------------ *)
(* Outcome accounting: every operation is attempted once, and any
   failed check counts it as failed. *)

let attempted = ref 0
let failed = ref 0
let reported = ref 0

let attempt n = attempted := !attempted + n

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failed;
      if !reported < 20 then prerr_endline ("perfbench: failed: " ^ s);
      incr reported)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let ( // ) = Filename.concat

(* ------------------------------------------------------------------ *)
(* Daemons *)

type daemon = { pid : int; sock : string; spawned : float; files : string }

let start_daemon ~dir ~tag ?(traced = false) () =
  let files = dir // tag in
  let sock = files ^ ".sock" in
  let args =
    [ "serve"; "--scenario"; fig5; "--listen"; "unix:" ^ sock; "--domains";
      string_of_int daemon_domains; "--quiet"; "--no-cache" ]
    @ if traced then [ "--trace"; files ^ ".trace.json"; "--metrics"; files ^ ".metrics.json" ]
      else []
  in
  attempt 1;
  let spawned = now () in
  let pid =
    Proc.spawn ~cpus:daemon_cpu ~stdout_file:(files ^ ".out") ~stderr_file:(files ^ ".err")
      fatnet args
  in
  { pid; sock; spawned; files }

(* A clean SIGTERM shutdown must exit 0. *)
let stop_daemon d =
  let status = Proc.terminate d.pid in
  if not (Proc.exited_ok status) then fail "daemon %s: %s" d.files (Proc.describe status)

(* Run [f] while a keeper holds the daemon's CPU out of its idle halt. *)
let with_keeper f =
  let keeper = Proc.start_keeper daemon_cpu in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill keeper Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Proc.wait_blocking keeper))
    f

(* ------------------------------------------------------------------ *)
(* Answers *)

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

(* An answer with its echoed id removed, for comparing two answers to
   the same question asked under different ids. *)
let strip_id answer =
  match String.index_opt answer ',' with
  | Some i -> String.sub answer i (String.length answer - i)
  | None -> answer

let answer_ok ~id answer =
  match Json.parse_result answer with
  | Ok j -> (
      match (Json.member "ok" j, Json.member "id" j) with
      | Some (Json.Bool true), Some (Json.Num x) -> x = float_of_int id
      | _ -> false)
  | Error _ -> false

let value_of answer =
  match Json.parse_result answer with
  | Ok j -> (
      match Json.member "value" j with Some (Json.Num v) -> v | _ -> Float.nan)
  | Error _ -> Float.nan

let id_of_line line =
  match Json.parse_result line with
  | Ok j -> (
      match Json.member "id" j with Some (Json.Num x) -> int_of_float x | _ -> -1)
  | Error _ -> -1

(* The in-process offline oracle (the `fatnet query --offline` path):
   the reference every daemon answer is compared to, bit for bit. *)
let offline_answer oracle line =
  let b = Buffer.create 256 in
  (match Protocol.frame_of_line line with
  | Error msg -> Buffer.add_string b (Protocol.error_line msg)
  | Ok frame ->
      let batched, parsed =
        match frame with
        | Protocol.Single p -> (false, [| p |])
        | Protocol.Batch ps -> (true, Array.of_list ps)
      in
      Protocol.buf_add_frame_responses b ~batched (Oracle.answer_batch oracle parsed));
  let s = Buffer.contents b in
  String.sub s 0 (String.length s - 1)

let check_offline oracle pairs =
  List.iter
    (fun (line, answer) ->
      attempt 1;
      if offline_answer oracle line <> answer then
        fail "answer differs from offline evaluation: %s -> %s" line answer)
    pairs

(* ------------------------------------------------------------------ *)
(* Request sources.  [next id] gives a request line and, for requests
   drawn from a fixed working set, the key whose set-up answer the
   reply must equal (modulo the id); fresh requests have key -1. *)

type source = {
  next : int -> string * int;
  sample_every : int;  (* fresh requests: check 1 in this many offline, 0 = none *)
}

type run_state = {
  oracle : Oracle.t;  (* offline reference *)
  mutable ws_answers : string array;  (* set-up answers, by working-set key *)
  mutable sampled : (string * string) list;  (* (request, answer) to check offline *)
  sample_offset : int;  (* seeded: which residue of the id is sampled *)
}

let check_step st src ~lines ~keys ~ids (r : Client.step) =
  Array.iteri
    (fun i line ->
      attempt 1;
      let answer = r.Client.answers.(i) in
      if answer = "" then fail "request unanswered: %s" line
      else if keys.(i) >= 0 then begin
        (* Set-up checked the working-set answer, so the same bytes
           under this request's id are a correct answer. *)
        if answer <> Printf.sprintf {|{"id": %d|} ids.(i) ^ strip_id st.ws_answers.(keys.(i)) then
          fail "working-set answer changed: %s -> %s" line answer
      end
      else if not (answer_ok ~id:ids.(i) answer) then fail "bad answer %s to %s" answer line
      else if src.sample_every > 0 && ids.(i) mod src.sample_every = st.sample_offset then
        st.sampled <- (line, answer) :: st.sampled)
    lines;
  if r.Client.refused then fail "connection lost during a step"

(* One step's requests, generated before it runs, so the traced run
   can send exactly the same step to two daemons. *)
type plan = { due : float array; ids : int array; lines : string array; keys : int array }

let make_plan src rng ~rate ~n =
  let due = Sched.poisson rng ~rate ~n in
  let ids = Array.init n (fun _ -> fresh_id ()) in
  let reqs = Array.map src.next ids in
  { due; ids; lines = Array.map fst reqs; keys = Array.map snd reqs }

type step = { lat : float array; late : float array; n : int }

let exec_plan st src client p =
  let r = Client.run client ~due:p.due ~lines:p.lines in
  check_step st src ~lines:p.lines ~keys:p.keys ~ids:p.ids r;
  { lat = r.Client.latency; late = r.Client.late; n = Array.length p.due }

let run_step st src client rng ~rate ~n = exec_plan st src client (make_plan src rng ~rate ~n)

(* Send [lines] in bursts of 64, each answered before the next goes
   out, so every run hands the daemon the same batches and its heap
   grows the same way. *)
let run_chunks client lines =
  let chunk = 64 in
  let n = Array.length lines in
  Array.concat
    (List.init ((n + chunk - 1) / chunk) (fun k ->
         let len = min chunk (n - (k * chunk)) in
         (Client.run_burst client (Array.sub lines (k * chunk) len)).Client.answers))

(* ------------------------------------------------------------------ *)
(* Daemon set-up: spawn, wait for the socket, answer "saturation",
   then the workload's set-up lines (the working set, or the miss
   workload's heap pre-load).  Returns the daemon, an open client and
   the set-up time. *)

let setup_daemon st ~dir ~tag ?traced ~warm () =
  let d = start_daemon ~dir ~tag ?traced () in
  let client = Client.open_ d.sock in
  let sat_id = fresh_id () in
  let sat_line = Printf.sprintf {|{"id": %d, "op": "saturation"}|} sat_id in
  let r = Client.run_burst client [| sat_line |] in
  attempt 1;
  let sat_answer = r.Client.answers.(0) in
  if not (answer_ok ~id:sat_id sat_answer) then fail "saturation answer: %S" sat_answer
  else st.sampled <- (sat_line, sat_answer) :: st.sampled;
  let lines = warm (value_of sat_answer) in
  let answers = run_chunks client lines in
  let ready = now () in
  Array.iteri
    (fun i line ->
      attempt 1;
      if not (answer_ok ~id:(id_of_line line) answers.(i)) then
        fail "set-up answer %S to %s" answers.(i) line)
    lines;
  (d, client, ready -. d.spawned, answers)

(* ------------------------------------------------------------------ *)
(* The timed phase runs in rounds.  Each round takes samples of every
   end-to-end timing (a set-up, trials at the [low] and at the [mid]
   rate, closed-loop capacity trials, a batch) and each metric is the
   median of its samples.  This host's speed changes by up to half
   over tens of seconds, so spreading every metric's samples across
   the run makes each read the same host, where back-to-back steps
   would each catch a different stretch of it.  NOTES.md compares the
   median with lower quantiles of the samples. *)

let ms x = 1000. *. x

let requests ~rate ~secs = max 1 (int_of_float (rate *. secs))

(* One stderr line per trial, for reading a run's shape. *)
let log_step label rate s =
  Printf.eprintf
    "perfbench: %-6s %8.1f q/s  n=%-6d p50 %.3f ms  p99 %.3f ms  late p50 %.4f p99 %.3f ms\n%!" label
    rate s.n (ms (Pct.median s.lat)) (ms (Pct.percentile s.lat 0.99)) (ms (Pct.median s.late))
    (ms (Pct.percentile s.late 0.99))

(* A sample taken while the hypervisor held this VM's CPUs for more
   than [max_steal] of their time measures the host, not the program:
   latencies of tens of milliseconds at a rate the daemon serves in
   30 us.  So does a trial where the client, not the daemon, fell
   behind ([client_behind] says why).  Such a sample is void and taken
   once more; a retake disturbed too is kept but marked, and [usable]
   leaves it out.  Retakes stop after [max_retakes] in a run, so a
   long stretch of host noise cannot stretch the run. *)
let max_steal = 0.05
let max_retakes = 10

let cpus = Domain.recommended_domain_count ()

let voided = ref 0

let undisturbed ?(client_behind = fun _ -> None) label f =
  let rec go retake =
    let s0 = Proc.steal_seconds () and t0 = now () in
    let r = f () in
    let share = (Proc.steal_seconds () -. s0) /. (float_of_int cpus *. (now () -. t0)) in
    let why =
      if share > max_steal then Some (Printf.sprintf "the host took %.0f%% of the CPUs" (100. *. share))
      else client_behind r
    in
    match why with
    | None -> { v = r; clean = true }
    | Some why ->
        incr voided;
        Printf.eprintf "perfbench: %s void, %s\n%!" label why;
        if retake || !voided > max_retakes then { v = r; clean = false } else go true
  in
  go false

(* The client fell behind when it, not the daemon, set a trial's
   figure.  An open-loop latency runs from the due time, so it holds
   the client's own delay in sending: a trial is the client's when its
   median delay is over [max_client] of its median latency.  A closed
   loop measures the daemon only while the daemon has work queued: a
   trial is the client's when the client held over [max_client] of the
   window (see [Client.run_closed]). *)
let max_client = Client.max_client_share

let open_behind s =
  let late = Pct.median s.late and lat = Pct.median s.lat in
  if late <= max_client *. lat then None
  else
    Some
      (Printf.sprintf "the client sent a median %.1f us late, against a median latency of %.1f us"
         (1e6 *. late) (1e6 *. lat))

(* A closed-loop trial: [rates.window] requests in flight, so the
   daemon is never idle and each request waits about window /
   throughput, within the workload's latency limit. *)
type closed = { qps : float; client_share : float; s : step }

let closed_behind c =
  if c.client_share <= max_client then None
  else Some (Printf.sprintf "the client held %.0f%% of the window" (100. *. c.client_share))

let closed_trial st src client (rates : rates) ~secs =
  let ids = Array.init rates.closed_lines (fun _ -> fresh_id ()) in
  let reqs = Array.map src.next ids in
  let r = Client.run_closed client ~window:rates.window ~secs ~lines:(Array.map fst reqs) in
  let n = Array.length r.Client.sent in
  check_step st src ~lines:r.Client.sent ~keys:(Array.sub (Array.map snd reqs) 0 n) ~ids:(Array.sub ids 0 n)
    r.Client.step;
  let s = { lat = r.Client.step.Client.latency; late = r.Client.step.Client.late; n = Array.length r.Client.sent } in
  log_step "closed" r.Client.throughput s;
  { qps = r.Client.throughput; client_share = r.Client.client_share; s }

type trials = { low : step sample list; mid : step sample list; closed : closed sample list }

(* [rates.reps] × (low, mid, closed) trials, with the keeper holding
   the daemon's CPU awake. *)
let serve_trials st src client rng ~(rates : rates) =
  let secs = rates.trial in
  with_keeper @@ fun () ->
  let step label rate =
    undisturbed ~client_behind:open_behind label (fun () ->
        let s = run_step st src client rng ~rate ~n:(requests ~rate ~secs) in
        log_step label rate s;
        s)
  in
  let ts =
    List.init rates.reps (fun _ ->
        let l = step "low" rates.low in
        let m = step "mid" rates.mid in
        let c =
          undisturbed ~client_behind:closed_behind "closed" (fun () -> closed_trial st src client rates ~secs)
        in
        (l, m, c))
  in
  { low = List.map (fun (l, _, _) -> l) ts; mid = List.map (fun (_, m, _) -> m) ts;
    closed = List.map (fun (_, _, c) -> c) ts }

let concat_trials ts =
  { low = List.concat_map (fun t -> t.low) ts; mid = List.concat_map (fun t -> t.mid) ts;
    closed = List.concat_map (fun t -> t.closed) ts }

let rss_mb pid = float_of_int (Option.value (Proc.peak_rss_kb pid) ~default:0) /. 1024.

(* Tail latencies go on the report line beside the metrics, with
   their level and sample count, not into the metrics: on this shared
   VM the host deschedules a busy vCPU for 5-30 ms a few times a
   second, and those stalls, not the daemon, set a p99; it moved by a
   factor of ten between runs minutes apart (NOTES.md), so no bound
   on it could hold. *)
let report : (string * string) list ref = ref []

let pooled steps = Array.concat (List.map (fun s -> s.lat) steps)

let p50_of steps = median_of (List.map (fun s -> Pct.median s.lat) (usable steps))

let report_step label steps =
  let p = Pct.summarize (pooled steps) in
  let late = Array.concat (List.map (fun s -> s.late) steps) in
  report :=
    !report
    @ [
        (label ^ ".n", string_of_int p.Pct.n);
        (label ^ ".trials", string_of_int (List.length steps));
        (label ^ ".pooled_p50_ms", Json.shortest_float (ms p.Pct.p50));
        (label ^ ".tail_q", Json.shortest_float p.Pct.tail_q);
        (label ^ ".tail_ms", Json.shortest_float (ms p.Pct.tail));
        (label ^ ".late_p99_ms", Json.shortest_float (ms (Pct.percentile late 0.99)));
      ]

let latency_metrics (s : trials) =
  report_step "low" (values s.low);
  report_step "mid" (values s.mid);
  report_step "closed" (List.map (fun c -> c.s) (values s.closed));
  report :=
    !report
    @ [
        ( "closed.client_share",
          Json.shortest_float (median_of (List.map (fun c -> c.client_share) (values s.closed))) );
        ("voided", string_of_int !voided);
      ];
  [
    ("low.p50_ms", ms (p50_of s.low), "ms");
    ("mid.p50_ms", ms (p50_of s.mid), "ms");
    ("capacity_qps", median_of (List.map (fun c -> c.qps) (usable s.closed)), "1/s");
  ]

(* ------------------------------------------------------------------ *)
(* Oracle workloads *)

type kind = Miss | Hit

let working_set_size = 1000
let preload_size = 1024

(* The reference simulation the oracle's answers are scored against:
   Fig. 5's system at four light loads, simulated at the paper's full
   protocol (see NOTES.md for the command). *)
let reference_rows () =
  match Model_err.rows_of_csv (read_file reference_csv) with
  | Ok rows -> rows
  | Error e -> failwith (reference_csv ^ ": " ^ e)

let model_error_of_daemon st client rows =
  let ask (r : Model_err.row) =
    let lat = Sched.line ~id:(fresh_id ()) Sched.Latency r.x in
    let q = Sched.line ~id:(fresh_id ()) Sched.Quantile r.x in
    let a = Client.run_burst client [| lat; q |] in
    List.iter2
      (fun line answer ->
        attempt 1;
        if not (answer_ok ~id:(id_of_line line) answer) then fail "bad answer %S to %s" answer line
        else st.sampled <- (line, answer) :: st.sampled)
      [ lat; q ]
      (Array.to_list a.Client.answers);
    { r with model = value_of a.Client.answers.(0); model_p99 = value_of a.Client.answers.(1) }
  in
  match Model_err.of_rows (List.map ask rows) with
  | Ok e -> e
  | Error msg ->
      fail "model error: %s" msg;
      { Model_err.mean_err = Float.nan; p99_err = Float.nan; points = 0 }

(* `fatnet query --offline` over the set-up lines: the batch path
   through the same model, timed from spawn to exit, and its output
   must equal the daemon's answers line for line. *)
let offline_batch ~dir ~tag lines answers =
  let input = dir // "offline.in" in
  if not (Sys.file_exists input) then
    write_file input (String.concat "\n" (Array.to_list lines) ^ "\n");
  let out = dir // Printf.sprintf "offline%d" tag in
  attempt 1;
  let t0 = now () in
  let pid =
    Proc.spawn ~stdin_file:input ~cpus:daemon_cpu ~stdout_file:(out ^ ".out")
      ~stderr_file:(out ^ ".err") fatnet
      [ "query"; "--offline"; "--scenario"; fig5; "--domains"; string_of_int daemon_domains ]
  in
  let status = Proc.wait_blocking pid in
  let wall = now () -. t0 in
  if not (Proc.exited_ok status) then fail "fatnet query --offline: %s" (Proc.describe status)
  else if read_file (out ^ ".out") <> String.concat "\n" (Array.to_list answers) ^ "\n" then
    fail "fatnet query --offline output differs from the daemon's answers";
  wall

(* The oracle workloads' inputs, all fixed by the seed.  The λ draws
   need the saturation rate, which the first daemon answers, so they
   are made on the first call of [warm]. *)
type oracle_inputs = {
  st : run_state;
  rates : rates;
  warm : float -> string array;  (* set-up lines: working set or pre-load *)
  source : unit -> source;  (* the timed requests; valid once [warm] ran *)
  sched : Rng.t;
}

let oracle_inputs kind ~seed =
  let master = Rng.create ~seed:(Int64.of_int seed) () in
  let rng_lambda = Rng.split master in
  let rng_pick = Rng.split master in
  let sched = Rng.split master in
  let scn = Result.get_ok (Scenario.load fig5) in
  let st =
    { oracle = Oracle.create ~domains:1 scn; ws_answers = [||]; sampled = [];
      sample_offset = Rng.int master 16 }
  in
  let fresh = ref None and lambdas = ref [||] and setup_lines = ref [||] in
  let warm sat =
    if !fresh = None then begin
      let f = Sched.fresh rng_lambda ~hi:(0.95 *. sat) in
      fresh := Some f;
      let n = match kind with Hit -> working_set_size | Miss -> preload_size in
      lambdas := Array.init n (fun _ -> Sched.draw f);
      setup_lines :=
        Array.mapi (fun j l -> Sched.line ~id:(fresh_id ()) (Sched.op_of_index j) l) !lambdas
    end;
    !setup_lines
  in
  let source () =
    match kind with
    | Miss ->
        let fresh = Option.get !fresh in
        { next = (fun id -> (Sched.line ~id (Sched.op_of_index id) (Sched.draw fresh), -1));
          sample_every = 16 }
    | Hit ->
        (* Each key's line after its id, rendered once: a closed trial
           renders tens of thousands of requests. *)
        let rest = Array.mapi (fun j l -> strip_id (Sched.line ~id:0 (Sched.op_of_index j) l)) !lambdas in
        { next =
            (fun id ->
              let j = Rng.int rng_pick working_set_size in
              ({|{"id": |} ^ string_of_int id ^ rest.(j), j));
          sample_every = 0 }
  in
  { st; rates = (match kind with Miss -> miss_rates | Hit -> hit_rates); warm; source; sched }

(* A round: a fresh daemon's set-up (about a second), its trials,
   then the same set-up lines as an offline batch (about a second). *)
let oracle_round_secs (r : rates) = 2. +. (3. *. float_of_int r.reps *. r.trial)

let oracle_e2e kind ~seed ~seconds ~dir =
  let inp = oracle_inputs kind ~seed in
  let st = inp.st in
  let src = lazy (inp.source ()) in
  let rounds = max 3 (Float.to_int (Float.round (seconds /. oracle_round_secs inp.rates))) in
  let results =
    List.init rounds (fun k ->
        let d, client, setup, answers =
          setup_daemon st ~dir ~tag:(Printf.sprintf "daemon%d" k) ~warm:inp.warm ()
        in
        attempt 1;
        if k = 0 then st.ws_answers <- answers
        else if answers <> st.ws_answers then fail "set-up answers differ between daemons";
        let trials = serve_trials st (Lazy.force src) client inp.sched ~rates:inp.rates in
        let rss = rss_mb d.pid in
        let err =
          if k = rounds - 1 then Some (model_error_of_daemon st client (reference_rows ())) else None
        in
        Client.close client;
        stop_daemon d;
        let batch =
          undisturbed "batch" (fun () -> offline_batch ~dir ~tag:k (inp.warm Float.nan) answers)
        in
        Printf.eprintf "perfbench: set-up %.3f s  batch %.3f s\n%!" setup batch.v;
        (setup, trials, rss, batch, err))
  in
  check_offline st.oracle st.sampled;
  Oracle.shutdown st.oracle;
  let err = Option.get (List.find_map (fun (_, _, _, _, e) -> e) results) in
  [ ("setup_s", median_of (List.map (fun (s, _, _, _, _) -> s) results), "s") ]
  @ latency_metrics (concat_trials (List.map (fun (_, t, _, _, _) -> t) results))
  @ [
      ("peak_rss_mb", median_of (List.map (fun (_, _, r, _, _) -> r) results), "MB");
      ("sweep_s", median_of (usable (List.map (fun (_, _, _, b, _) -> b) results)), "s");
      ("model_mean_err", err.Model_err.mean_err, "ratio");
      ("model_p99_err", err.Model_err.p99_err, "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* The sweep the traced run measures *)

let sweep_name = "simsweep"

(* Fig. 5's system with a shortened protocol and four load points at
   or below 24 % of the model's saturation rate, where the simulator
   is clear of its own blow-up (60–75 %).  The simulation keeps the
   scenario file's own seed, so the sweep's counts (events, messages
   delivered, replications) repeat exactly for a commit. *)
let sweep_scenario () =
  let base = Result.get_ok (Scenario.load fig5) in
  let sat = Scenario.saturation_rate base in
  {
    base with
    Scenario.name = sweep_name;
    load = Scenario.Linear { lambda_max = 0.24 *. sat; steps = 4 };
    protocol = { base.Scenario.protocol with warmup = 250; measured = 2000; drain = 250 };
    replication =
      Some
        { Scenario.target_rel = 0.05; confidence = 0.95; min_reps = 1; max_reps = 1;
          target = Scenario.Mean };
  }

type sweep_run = { stdout : string; csv : string; stats : string }

(* The engine's stats line on stderr, e.g. "sweep: 4 points (0
   executed, 0 memoized, 4 cached), ...". *)
let stats_line err =
  String.split_on_char '\n' err
  |> List.find_opt (fun l -> String.length l > 7 && String.sub l 0 7 = "sweep: ")
  |> Option.value ~default:""

let run_sweep ~dir ~scn_path ~cache ~tag ?(extra = []) () =
  let out = dir // tag in
  attempt 1;
  let pid =
    Proc.spawn ~cpus:"0,1" ~stdout_file:(out ^ ".out") ~stderr_file:(out ^ ".err") experiments
      ([ "sweep"; scn_path; "--domains"; string_of_int sweep_domains; "--cache-dir"; cache;
         "--out"; out ]
      @ extra)
  in
  let status = Proc.wait_blocking pid in
  let err = read_file (out ^ ".err") in
  if not (Proc.exited_ok status) then fail "experiments sweep %s: %s" tag (Proc.describe status);
  if Str_util.contains err "quarantined" then fail "sweep %s quarantined a point" tag;
  let csv = try read_file (out // (sweep_name ^ ".csv")) with Sys_error _ -> "" in
  (* The table must match across runs; the "wrote DIR/..." line names
     each run's own output directory. *)
  let stdout = Str_util.replace_all (read_file (out ^ ".out")) ~sub:out ~by:"OUT" in
  { stdout; csv; stats = stats_line err }

(* ------------------------------------------------------------------ *)
(* The traced run.  The program's own --trace/--metrics output gives
   spans and counters; the benchmark replays the same inputs through
   each layer's public functions, with the monotonic clock and the
   allocation counter around every call. *)

module Trace = Fatnet_obs.Trace
module Snapshot = Fatnet_obs.Metrics.Snapshot
module Eval = Fatnet_model.Eval

(* Bytes this domain allocated on the minor heap so far.  Every
   object under 256 words starts there, and unlike
   [Gc.allocated_bytes], whose promoted and major counters move with
   the timing of collections, the count repeats exactly for the same
   calls. *)
let minor_bytes () = Gc.minor_words () *. float_of_int (Sys.word_size / 8)

(* One call: its result, seconds taken and bytes allocated. *)
let timed f =
  let a0 = minor_bytes () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let a1 = minor_bytes () in
  (r, t1 -. t0, a1 -. a0)

(* What [timed] itself allocates (the boxed clock readings), taken
   off every measured allocation. *)
let alloc_bias =
  let _, _, a = timed (fun () -> ()) in
  a

type calls = { mutable secs : float list; mutable bytes : float list }

let calls () = { secs = []; bytes = [] }

let record c f =
  let r, s, a = timed f in
  c.secs <- s :: c.secs;
  c.bytes <- (a -. alloc_bias) :: c.bytes;
  r

let median_us c = 1e6 *. median_of c.secs
let mean l = if l = [] then Float.nan else List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
let mean_bytes c = mean c.bytes

let spans_of path =
  match Trace.spans_of_chrome_json (read_file path) with
  | Ok s -> s
  | Error e ->
      fail "%s: %s" path e;
      []

let snapshot_of path =
  match Snapshot.of_json (read_file path) with
  | Ok s -> s
  | Error e ->
      fail "%s: %s" path e;
      Snapshot.empty

(* The sum over every series of that name, whatever its labels. *)
let snap_sum (snap : Snapshot.t) name =
  List.fold_left
    (fun acc (s : Snapshot.series) ->
      if s.Snapshot.name <> name then acc
      else
        match s.Snapshot.value with
        | Snapshot.Counter n -> acc +. float_of_int n
        | Snapshot.Gauge g -> acc +. g
        | Snapshot.Histogram h -> acc +. float_of_int h.Snapshot.count)
    0. snap.Snapshot.series

let snap_gauges (snap : Snapshot.t) name =
  List.filter_map
    (fun (s : Snapshot.series) ->
      match s.Snapshot.value with
      | Snapshot.Gauge g when s.Snapshot.name = name -> Some g
      | _ -> None)
    snap.Snapshot.series

let span_secs (sp : Trace.span_record) = Int64.to_float sp.Trace.dur_ns *. 1e-9

let total_secs spans name =
  List.fold_left
    (fun acc sp -> if sp.Trace.name = name then acc +. span_secs sp else acc)
    0. spans

(* Length of the union of a list of [start, stop) intervals in ns. *)
let union_secs iv =
  let total, (lo, hi) =
    List.fold_left
      (fun (total, (lo, hi)) (a, b) ->
        if a > hi then (Int64.add total (Int64.sub hi lo), (a, b)) else (total, (lo, max hi b)))
      (0L, (0L, 0L))
      (List.sort compare iv)
  in
  Int64.to_float (Int64.add total (Int64.sub hi lo)) *. 1e-9

let interval sp = (sp.Trace.start_ns, Int64.add sp.Trace.start_ns sp.Trace.dur_ns)

(* Self time: a span's duration less the part of it its direct
   children cover (children on other domains may overlap). *)
let self_secs spans names =
  let children = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.add children sp.Trace.parent (interval sp)) spans;
  List.fold_left
    (fun acc sp ->
      if List.mem sp.Trace.name names then
        acc +. span_secs sp -. union_secs (Hashtbl.find_all children sp.Trace.id)
      else acc)
    0. spans

(* The model's layers over a workload's λ values: the kernel on
   latency λs, the tail fit and its inversion on quantile λs, plus a
   workspace build and a cold saturation solve. *)
let model_layers scn ~latency ~quantile =
  let ws = Scenario.evaluator scn in
  let kernel = calls () and fit = calls () and invert = calls () in
  List.iter (fun l -> ignore (record kernel (fun () -> Eval.mean_into ws ~lambda_g:l))) latency;
  List.iter
    (fun l ->
      let tl = record fit (fun () -> Eval.tail ws ~lambda_g:l) in
      ignore (record invert (fun () -> Fatnet_model.Tail.quantile tl Sched.quantile_q)))
    quantile;
  let build = calls () and solve = calls () in
  for _ = 1 to 20 do
    ignore (record build (fun () -> Scenario.evaluator scn))
  done;
  for _ = 1 to 5 do
    let ws = Scenario.evaluator scn in
    ignore (record solve (fun () -> Eval.saturation_rate ws))
  done;
  [
    ("kernel.mean_us", median_us kernel, "us");
    ("kernel.mean_alloc_b", mean_bytes kernel, "B");
    ("workspace.build_us", median_us build, "us");
    ("tail.fit_us", median_us fit, "us");
    ("tail.fit_alloc_b", mean_bytes fit, "B");
    ("tail.invert_us", median_us invert, "us");
    ("tail.invert_alloc_b", mean_bytes invert, "B");
    ("solver.saturation_ms", 1e-3 *. median_us solve, "ms");
  ]

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

(* Latency and quantile λs of a list of request lines. *)
let lambdas_of lines =
  Array.fold_right
    (fun line (lat, q) ->
      match Protocol.frame_of_line line with
      | Ok (Protocol.Single (Protocol.Req { query = Protocol.Latency { lambda }; _ })) ->
          (lambda :: lat, q)
      | Ok (Protocol.Single (Protocol.Req { query = Protocol.Quantile { lambda; _ }; _ })) ->
          (lat, lambda :: q)
      | _ -> (lat, q))
    lines ([], [])

(* The serve layers over one [low] step, cut into [overhead_pairs]
   slices.  An untraced and a traced daemon run side by side, and each
   slice goes unchanged to both, in alternating order, so that the
   host's drift between slices cancels in [trace_overhead_pct], the
   median over the pairs of the traced slice's p50 against the
   untraced one's. *)
let overhead_pairs = 6

let concat_steps steps =
  { lat = Array.concat (List.map (fun s -> s.lat) steps);
    late = Array.concat (List.map (fun s -> s.late) steps);
    n = List.fold_left (fun a s -> a + s.n) 0 steps }

let serve_layers (inp : oracle_inputs) ~dir ~scn ~seconds =
  let st = inp.st in
  with_keeper @@ fun () ->
  let dU, cU, _, answers = setup_daemon st ~dir ~tag:"untraced" ~warm:inp.warm () in
  st.ws_answers <- answers;
  let dT, cT, _, answers_t = setup_daemon st ~dir ~tag:"traced" ~traced:true ~warm:inp.warm () in
  attempt 1;
  if answers_t <> answers then fail "traced daemon's set-up answers differ from the untraced one's";
  let setup_lines = inp.warm Float.nan in
  let src = inp.source () in
  let rate = inp.rates.low in
  let n = requests ~rate ~secs:(0.2 *. seconds /. float_of_int overhead_pairs) in
  let plans = List.init overhead_pairs (fun _ -> make_plan src inp.sched ~rate ~n) in
  let before = Client.scrape dT.sock in
  let pairs =
    List.mapi
      (fun i p ->
        let run c = exec_plan st src c p in
        if i mod 2 = 0 then
          let u = run cU in
          (u, run cT)
        else
          let t = run cT in
          (run cU, t))
      plans
  in
  let after = Client.scrape dT.sock in
  List.iter Client.close [ cU; cT ];
  List.iter stop_daemon [ dU; dT ];
  let u = concat_steps (List.map fst pairs) and t = concat_steps (List.map snd pairs) in
  let lines = Array.concat (List.map (fun p -> p.lines) plans) in
  let delta name = Client.counter after name -. Client.counter before name in
  (* Spans of the set-up (saturation, then the set-up lines) come
     first; every later serve.batch belongs to the step. *)
  let setup_requests = 1 + Array.length setup_lines in
  let batches =
    List.filter (fun sp -> sp.Trace.name = "serve.batch") (spans_of (dT.files ^ ".trace.json"))
  in
  let requests_of sp =
    Option.value (Option.bind (List.assoc_opt "requests" sp.Trace.attrs) int_of_string_opt) ~default:0
  in
  let rec drop seen = function
    | sp :: rest when seen < setup_requests -> drop (seen + requests_of sp) rest
    | l -> l
  in
  let step_batches = drop 0 batches in
  (* Replay: an in-process oracle that has answered the same set-up
     lines, so its memo holds what the daemon's held. *)
  let oracle = Oracle.create ~domains:1 scn in
  ignore (offline_answer oracle {|{"op": "saturation"}|});
  Array.iter (fun l -> ignore (offline_answer oracle l)) setup_lines;
  let parse = calls () and answer = calls () and render = calls () and hit = calls () in
  let frames =
    Array.map
      (fun line ->
        match record parse (fun () -> Protocol.frame_of_line line) with
        | Ok (Protocol.Single p) -> [| p |]
        | _ -> [||])
      lines
  in
  Array.iter
    (fun f ->
      let rs = record answer (fun () -> Oracle.answer_batch oracle f) in
      record render (fun () ->
          let b = Buffer.create 256 in
          Protocol.buf_add_frame_responses b ~batched:false rs))
    frames;
  Array.iter (fun f -> ignore (record hit (fun () -> Oracle.answer_batch oracle f))) frames;
  Oracle.shutdown oracle;
  let per_request =
    List.map2 ( +. ) (List.map2 ( +. ) parse.secs answer.secs) render.secs |> Array.of_list
  in
  let e2e = Array.fold_left ( +. ) 0. t.lat in
  let covered =
    List.fold_left (fun acc sp -> acc +. (span_secs sp *. float_of_int (requests_of sp))) 0. step_batches
    +. List.fold_left ( +. ) 0. parse.secs
    +. List.fold_left ( +. ) 0. render.secs
  in
  let overhead =
    median_of
      (List.map (fun (u, t) -> (Pct.median t.lat -. Pct.median u.lat) /. Pct.median u.lat) pairs)
  in
  let hits = delta "serve_memo_hits" and misses = delta "serve_memo_misses" in
  let lat, q = lambdas_of lines in
  [
    ("client.late_p99_ms", ms (Pct.percentile u.late 0.99), "ms");
    ("server.edge_us", 1e6 *. (Pct.median u.lat -. Pct.median per_request), "us");
    ("server.batch_size", mean (List.map (fun sp -> float_of_int (requests_of sp)) step_batches), "count");
    ("protocol.parse_us", median_us parse, "us");
    ("protocol.parse_alloc_b", mean_bytes parse, "B");
    ("protocol.render_us", median_us render, "us");
    ("protocol.render_alloc_b", mean_bytes render, "B");
    ("oracle.hit_us", median_us hit, "us");
    ("memo.hit_ratio", hits /. (hits +. misses), "ratio");
    ("memo.entries",
      Client.counter after "serve_memo_misses" -. Client.counter after "serve_memo_evictions",
      "count");
    ("memo.evictions", delta "serve_memo_evictions", "count");
    ("kernel.evals", delta "model_evaluations", "count");
    ("solver.iterations", Client.counter before "solver_boundary_iterations", "count");
  ]
  @ model_layers scn ~latency:(take 2000 lat) ~quantile:(take 250 q)
  @ [
      ("unaccounted_pct", 100. *. (1. -. (covered /. e2e)), "%");
      ("trace_overhead_pct", 100. *. overhead, "%");
    ]

(* The sweep's layers: a traced cold sweep and its warm rerun, both
   checked against an untraced cold sweep, plus one point through the
   runner in-process.  Every workload's traced run measures them, so
   no sweep-side time reads as a constant on the oracle workloads. *)
let sweep_layers ~dir =
  let scn = sweep_scenario () in
  let scn_path = dir // "sweep.scn" in
  Scenario.save ~path:scn_path scn;
  let points = List.length (Scenario.lambdas scn) in
  let traced tag = [ "--trace"; dir // (tag ^ ".trace.json"); "--metrics"; dir // (tag ^ ".metrics.json") ] in
  let u = run_sweep ~dir ~scn_path ~cache:(dir // "cache-u") ~tag:"cold-u" () in
  let cache = dir // "cache-t" in
  let t = run_sweep ~dir ~scn_path ~cache ~tag:"cold-t" ~extra:(traced "cold-t") () in
  let w = run_sweep ~dir ~scn_path ~cache ~tag:"warm-t" ~extra:(traced "warm-t") () in
  List.iter
    (fun (what, r) ->
      attempt 1;
      if r.csv <> u.csv || r.stdout <> u.stdout then fail "%s sweep differs from the untraced cold sweep" what)
    [ ("traced cold", t); ("traced warm", w) ];
  attempt 1;
  if not (Str_util.contains w.stats (Printf.sprintf "(0 executed, 0 memoized, %d cached)" points)) then
    fail "warm rerun did not read every point back: %s" w.stats;
  let cold_spans = spans_of (dir // "cold-t.trace.json") in
  let warm_spans = spans_of (dir // "warm-t.trace.json") in
  let cold_snap = snapshot_of (dir // "cold-t.metrics.json") in
  let warm_snap = snapshot_of (dir // "warm-t.metrics.json") in
  let events = snap_sum cold_snap "sim_events" in
  let events_s = total_secs cold_spans "sim.events" in
  (* Allocation per event: one point through the runner in-process. *)
  let r, _, bytes =
    timed (fun () -> Fatnet_sim.Runner.run_scenario ~lambda_g:(List.hd (Scenario.lambdas scn)) scn)
  in
  [
    ("engine.executed", snap_sum cold_snap "sweep_points_executed", "count");
    ("engine.self_ms", 1e3 *. self_secs cold_spans [ "sweep"; "point"; "attempt" ], "ms");
    ("engine.occupancy", mean (snap_gauges cold_snap "sweep_domain_occupancy"), "ratio");
    ("cache.store_ms", 1e3 *. total_secs cold_spans "cache.store", "ms");
    ("cache.find_ms", 1e3 *. total_secs warm_spans "cache.find", "ms");
    ("cache.hits", snap_sum warm_snap "sweep_cache_hits", "count");
    ("runner.replications", snap_sum cold_snap "sweep_replications", "count");
    ("runner.setup_ms", 1e3 *. total_secs cold_spans "sim.setup", "ms");
    ("runner.events_s", events_s, "s");
    ("sim.events", events, "count");
    ("sim.delivered", snap_sum cold_snap "sim_messages_delivered", "count");
    ("sim.events_per_s", events /. events_s, "1/s");
    ("sim.alloc_b_per_event", (bytes -. alloc_bias) /. float_of_int r.Fatnet_sim.Runner.events, "B");
  ]

let oracle_layers kind ~seed ~seconds ~dir =
  let inp = oracle_inputs kind ~seed in
  let scn = Result.get_ok (Scenario.load fig5) in
  let serve = serve_layers inp ~dir ~scn ~seconds in
  check_offline inp.st.oracle inp.st.sampled;
  Oracle.shutdown inp.st.oracle;
  serve @ sweep_layers ~dir

(* ------------------------------------------------------------------ *)
(* Host facts and the result line *)

(* The first stdout line of a command that exits 0; its stderr is
   discarded. *)
let command_line prog args =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error _ -> None
  | r, w -> (
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        try Some (Unix.create_process prog (Array.of_list (prog :: args)) null w null)
        with Unix.Unix_error _ -> None
      in
      Unix.close w;
      Unix.close null;
      let ic = Unix.in_channel_of_descr r in
      let line = In_channel.input_line ic in
      close_in ic;
      match pid with
      | Some pid when Proc.exited_ok (Proc.waitpid_nointr [] pid |> snd) -> line
      | _ -> None)

(* The commit under test: git's when the checkout is a repository,
   otherwise a digest of the program's sources. *)
let commit () =
  match command_line "git" [ "rev-parse"; "HEAD" ] with
  | Some c -> c
  | None ->
      let rec files dir =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.concat_map (fun f ->
               let p = dir // f in
               if Sys.is_directory p then files p else [ p ])
      in
      let all = List.concat_map files [ "bin"; "lib" ] in
      "src:" ^ Digest.to_hex (Digest.string (String.concat "" (List.map (fun p -> p ^ read_file p) all)))

let json_num v = if Float.is_finite v then Json.shortest_float v else "null"

let host_facts ~workload ~seed ~trace =
  let b = Buffer.create 512 in
  let field k v =
    if Buffer.length b > 1 then Buffer.add_string b ", ";
    Json.buf_add_string b k;
    Buffer.add_string b ": ";
    Buffer.add_string b v
  in
  let str s =
    let b = Buffer.create 32 in
    Json.buf_add_string b s;
    Buffer.contents b
  in
  Buffer.add_char b '{';
  field "host" "true";
  field "workload" (str workload);
  field "seed" (string_of_int seed);
  field "trace" (string_of_int trace);
  field "nproc" (Option.value (command_line "nproc" []) ~default:"null");
  field "recommended_domain_count" (string_of_int (Domain.recommended_domain_count ()));
  field "ocaml" (str Sys.ocaml_version);
  field "commit" (str (commit ()));
  field "daemon_domains" (string_of_int daemon_domains);
  field "sweep_domains" (string_of_int sweep_domains);
  let rates name (r : rates) =
    field (name ^ "_low_qps") (json_num r.low);
    field (name ^ "_mid_qps") (json_num r.mid);
    field (name ^ "_limit_ms") (json_num (ms r.limit));
    field (name ^ "_window") (string_of_int r.window);
    field (name ^ "_closed_lines") (string_of_int r.closed_lines)
  in
  rates "miss" miss_rates;
  rates "hit" hit_rates;
  Buffer.add_char b '}';
  Buffer.contents b

let result_line metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {|}
    (!failed = 0) !attempted !failed;
  List.iteri
    (fun i (name, v, unit) ->
      if i > 0 then Buffer.add_string b ", ";
      Json.buf_add_string b name;
      Printf.bprintf b {|: {"value": %s, "unit": |} (json_num v);
      Json.buf_add_string b unit;
      Buffer.add_char b '}')
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let usage = "main.exe --workload oracle-miss|oracle-hit --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_int seconds, "S how long the timed phase runs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let valid_workload = List.mem !workload [ "oracle-miss"; "oracle-hit" ] in
  if not (valid_workload && !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1)) then begin
    prerr_endline ("usage: " ^ usage);
    exit 2
  end;
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        Printf.eprintf "perfbench: %s is missing (run from the repository root, after the build)\n" p;
        exit 2
      end)
    [ fatnet; experiments; fig5; reference_csv ];
  let on_signal = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Host facts first: pinning narrows what nproc reports. *)
  let facts = host_facts ~workload:!workload ~seed:!seed ~trace:!trace in
  if not (Proc.pin_self client_cpu) then prerr_endline "perfbench: could not pin to a CPU";
  let dir = ".perfbench" // Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ()) in
  Fatnet_experiments.Fs_util.mkdir_p dir;
  let seconds = float_of_int !seconds in
  let metrics =
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let kind = if !workload = "oracle-miss" then Miss else Hit in
        if !trace = 0 then oracle_e2e kind ~seed:!seed ~seconds ~dir
        else oracle_layers kind ~seed:!seed ~seconds ~dir)
  in
  List.iter
    (fun (name, v, _) -> if not (Float.is_finite v) then fail "metric %s was not measured" name)
    metrics;
  print_endline facts;
  if !report <> [] then
    print_endline
      ("{\"report\": true, "
      ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) !report)
      ^ "}");
  print_endline (result_line metrics)

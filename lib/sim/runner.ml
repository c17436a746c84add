module Rng = Fatnet_prng.Rng
module Welford = Fatnet_stats.Welford
module Quantile = Fatnet_stats.Quantile
module Summary = Fatnet_stats.Summary
module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace

module Scenario = Fatnet_scenario.Scenario

type trace_record = {
  serial : int;
  src : int;
  dst : int;
  generated_at : float;
  delivered_at : float;
  is_intra : bool;
  measured : bool;
}

type result = {
  latency : Summary.t;
  intra_latency : Summary.t;
  inter_latency : Summary.t;
  ci95_half_width : float;
  generated : int;
  delivered : int;
  end_time : float;
  events : int;
  wall_seconds : float;
  bottlenecks : (string * float) list;
}

let summarize w p50 p90 p99 p999 =
  Summary.of_welford w ~p50:(Quantile.estimate p50) ~p90:(Quantile.estimate p90)
    ~p99:(Quantile.estimate p99) ~p999:(Quantile.estimate p999)

let run_scenario ?trace ?metrics:(mreg = Metrics.disabled) ?lambda_g (s : Scenario.t) =
  let lambda_g = Scenario.require_lambda ?lambda_g s in
  let { Scenario.warmup; measured; drain; seed; cd_mode; streaming } = s.Scenario.protocol in
  let system = s.Scenario.system and message = s.Scenario.message in
  (* A [{ s with ... }] update skips [Scenario.validate], so the run
     checks what it relies on itself. *)
  if not (lambda_g > 0.) then invalid_arg "Runner.run_scenario: lambda_g must be positive";
  if warmup < 0 || measured < 1 || drain < 0 then
    invalid_arg "Runner.run_scenario: invalid batch sizes";
  (* One span per run with three sequential phase children — setup
     (network construction and node-stream scheduling), events (the
     calendar drain), finalize (bottlenecks and metrics export).
     Spans observe only: no branch below depends on the tracer. *)
  let tr = Trace.ambient () in
  Trace.in_span tr "sim.run" @@ fun run_sp ->
  Trace.attr_float run_sp "lambda_g" lambda_g;
  let setup_sp = Trace.start tr "sim.setup" in
  let wall_start = Metrics.now_seconds () in
  let net = System_net.create ~system ~message in
  let space = System_net.space net in
  let total_nodes = Fatnet_workload.Node_space.total_nodes space in
  let engine =
    Wormhole.create ~streaming
      ~channel_count:(System_net.channel_count net)
      ~hop_time:(System_net.hop_time net)
      ~is_ejection:(System_net.is_ejection net)
      ()
  in
  let rng = Rng.create ~seed () in
  let quota = warmup + measured + drain in
  let generated = ref 0 in
  let delivered = ref 0 in
  let all = Welford.create () and intra = Welford.create () and inter = Welford.create () in
  let p50 = Quantile.create ~q:0.5
  and p90 = Quantile.create ~q:0.9
  and p99 = Quantile.create ~q:0.99
  and p999 = Quantile.create ~q:0.999 in
  let batches =
    Fatnet_stats.Batch_means.create ~batch_size:(max 1 (measured / 30))
  in
  let arrival = Fatnet_workload.Arrival.Poisson lambda_g in
  let metrics_on = Metrics.is_enabled mreg in
  let have_trace = trace <> None in
  (* In-flight and phase tracking cost a few stores per *message*
     (never per event), so they stay on unconditionally. *)
  let live = ref 0 in
  let peak_live = ref 0 in
  let warmup_end = ref nan in
  let measure_end = ref nan in
  let cd_backlog =
    Metrics.histogram mreg "sim_cd_backlog_flits" ~lo:0. ~hi:64. ~bins:16
      ~help:"Flits absorbed by a C/D but not yet delivered downstream (buffer + in flight), sampled at each message's tail-flit hand-off"
  in
  (* Simultaneous deliveries have no intrinsic order: which of two
     unrelated worms' equal-time arrivals pops first is a calendar
     tie-break detail.  The running statistics are add-order-sensitive,
     so records are staged per timestamp and committed in
     message-serial order, making every result independent of that
     detail. *)
  let pending = ref [] in
  let pending_time = ref Float.neg_infinity in
  let commit (r : trace_record) =
    (match trace with Some sink -> sink r | None -> ());
    if r.measured then begin
      let l = r.delivered_at -. r.generated_at in
      delivered := !delivered + 1;
      Welford.add all l;
      Quantile.add p50 l;
      Quantile.add p90 l;
      Quantile.add p99 l;
      Quantile.add p999 l;
      Fatnet_stats.Batch_means.add batches l;
      Welford.add (if r.is_intra then intra else inter) l
    end
  in
  (* Delivery times are non-decreasing, so equal-time records are
     contiguous and one pending batch suffices. *)
  let flush_pending () =
    match !pending with
    | [] -> ()
    | [ r ] ->
        pending := [];
        commit r
    | rs ->
        pending := [];
        List.iter commit (List.sort (fun a b -> compare a.serial b.serial) rs)
  in
  (* Launch one message: build its worm segments and chain them
     through the C/Ds (store-and-forward). *)
  let launch src t0 =
    let serial = !generated in
    generated := !generated + 1;
    let dst = Fatnet_workload.Destination.draw s.Scenario.pattern space rng ~src in
    let ci, _ = Fatnet_workload.Node_space.of_global space src in
    let cj, _ = Fatnet_workload.Node_space.of_global space dst in
    let pick_port c =
      let ports = System_net.cd_port_count net c in
      if ports <= 1 then 0 else Rng.int rng ports
    in
    let icn2_choice =
      let choices = System_net.icn2_ascent_choices net in
      if choices <= 1 then 0 else Rng.int rng choices
    in
    let segs =
      System_net.segments net ~src ~dst ~egress_port:(pick_port ci)
        ~ingress_port:(pick_port cj) ~icn2_choice
    in
    let measured_msg = serial >= warmup && serial < warmup + measured in
    let is_intra = List.length segs = 1 in
    let flits = message.Fatnet_model.Params.length_flits in
    incr live;
    if !live > !peak_live then peak_live := !live;
    if serial = warmup then warmup_end := t0;
    if serial = warmup + measured then measure_end := t0;
    (* Unmeasured messages with no trace sink attached need no
       [trace_record] at all: they never reach the statistics, so
       skipping the staging avoids one record allocation per warm-up
       and drain message. *)
    let record =
      if not (measured_msg || have_trace) then fun (_ : float) -> live := !live - 1
      else fun finish ->
        live := !live - 1;
        if finish <> !pending_time then begin
          flush_pending ();
          pending_time := finish
        end;
        pending :=
          {
            serial;
            src;
            dst;
            generated_at = t0;
            delivered_at = finish;
            is_intra;
            measured = measured_msg;
          }
          :: !pending
    in
    match (segs, cd_mode) with
    | [ one ], _ -> Wormhole.submit engine ~time:t0 ~route:one ~flits ~on_delivered:record ()
    | [ s1; s2; s3 ], Scenario.Cut_through ->
        (* Each C/D absorbs the incoming worm and re-injects flits as
           they arrive.  When the downstream worm is blocked (queued
           for injection or stalled in the fabric), arriving flits
           accumulate in the C/D buffer and later stream out at full
           downstream wire rate — so channel holding times compress
           towards M·t_cs of the local network exactly when the load
           is high, which is what keeps the saturation point at the
           model's C/D bound (Eq. 37). *)
        let w3 = Wormhole.submit_gated engine ~route:s3 ~flits ~on_delivered:record () in
        (* The forwarding closure is chosen once per segment: the
           metrics-off variant is exactly the bare hand-off, so the
           per-flit fast path pays nothing when telemetry is off.
           With telemetry on, the backlog is sampled once per message
           (at the tail flit's hand-off, after the release) rather
           than per flit — per-flit observation costs a few percent
           of total throughput, per-message is noise. *)
        let forward downstream =
          if not metrics_on then fun j _ -> Wormhole.release_flit engine downstream j
          else fun j _ ->
            Wormhole.release_flit engine downstream j;
            if j + 1 = flits then
              Metrics.observe cd_backlog
                (float_of_int (flits - Wormhole.delivered_flits downstream))
        in
        let w2 =
          Wormhole.submit_gated engine ~route:s2 ~flits ~on_flit_delivered:(forward w3)
            ~on_delivered:ignore ()
        in
        Wormhole.submit engine ~time:t0 ~route:s1 ~flits ~on_flit_delivered:(forward w2)
          ~on_delivered:ignore ()
    | [ s1; s2; s3 ], Scenario.Store_and_forward ->
        (* Whole messages queue at each C/D before moving on. *)
        Wormhole.submit engine ~time:t0 ~route:s1 ~flits
          ~on_delivered:(fun t1 ->
            Wormhole.submit engine ~time:t1 ~route:s2 ~flits
              ~on_delivered:(fun t2 ->
                Wormhole.submit engine ~time:t2 ~route:s3 ~flits ~on_delivered:record ())
              ())
          ()
    | _ -> assert false
  in
  (* Independent Poisson stream per node; each stream stops once the
     global generation quota is reached. *)
  let rec node_stream node time =
    if !generated < quota then begin
      launch node time;
      schedule_next node time
    end
  and schedule_next node time =
    let dt = Fatnet_workload.Arrival.next_interval arrival rng in
    Wormhole.schedule engine ~time:(time +. dt) (fun t -> node_stream node t)
  in
  for node = 0 to total_nodes - 1 do
    schedule_next node 0.
  done;
  Trace.finish setup_sp;
  let events_sp = Trace.start tr "sim.events" in
  Wormhole.run engine;
  flush_pending ();
  Trace.attr_int events_sp "events" (Wormhole.events_processed engine);
  Trace.finish events_sp;
  let finalize_sp = Trace.start tr "sim.finalize" in
  let end_time = Wormhole.now engine in
  (* Phase ends are stamped by the first message of the next phase, so
     a protocol with [drain = 0] (or [measured = 0]) never generates
     the stamping serial and the gauge would otherwise export NaN:
     the phase then ends where the run does. *)
  if Float.is_nan !warmup_end then warmup_end := end_time;
  if Float.is_nan !measure_end then measure_end := end_time;
  (* The five busiest channels point at the saturating resource. *)
  let bottlenecks =
    if end_time <= 0. then []
    else begin
      let utils =
        Array.init (System_net.channel_count net) (fun c ->
            (Wormhole.channel_busy_time engine c /. end_time, c))
      in
      Array.sort (fun (a, _) (b, _) -> Float.compare b a) utils;
      Array.to_list (Array.sub utils 0 (min 5 (Array.length utils)))
      |> List.map (fun (u, c) -> (System_net.describe_channel net c, u))
    end
  in
  let wall_seconds = Metrics.now_seconds () -. wall_start in
  if metrics_on then begin
    (* Whole-run export: everything below runs once, after the
       calendar drained, off any hot path. *)
    let classed = Hashtbl.create 16 in
    let class_hist name ~hi ~help c =
      let network, level = System_net.channel_class net c in
      let key = (name, network, level) in
      match Hashtbl.find_opt classed key with
      | Some h -> h
      | None ->
          let h =
            Metrics.histogram mreg name ~help
              ~labels:[ ("network", network); ("level", string_of_int level) ]
              ~lo:0. ~hi ~bins:20
          in
          Hashtbl.add classed key h;
          h
    in
    if end_time > 0. then
      for c = 0 to System_net.channel_count net - 1 do
        (* Utilisation lives in [0, 1]; a sample in the overflow
           counter is a channel pegged for the entire run.  Blocking
           sums over queued heads, so a contended channel can exceed
           1x the run length. *)
        Metrics.observe
          (class_hist "sim_channel_utilization" ~hi:1.
             ~help:"Per-channel fraction of the run spent reservation-held, by network and tree level"
             c)
          (Wormhole.channel_busy_time engine c /. end_time);
        Metrics.observe
          (class_hist "sim_channel_blocked_fraction" ~hi:2.
             ~help:"Per-channel head-blocking time as a fraction of the run (sums across queued heads)"
             c)
          (Wormhole.channel_blocked_time engine c /. end_time)
      done;
    Metrics.add (Metrics.counter mreg "sim_messages_generated") !generated;
    Metrics.add (Metrics.counter mreg "sim_messages_delivered") !delivered;
    Metrics.add (Metrics.counter mreg "sim_events") (Wormhole.events_processed engine);
    Metrics.add (Metrics.counter mreg "sim_runs") 1;
    Metrics.set_max
      (Metrics.gauge mreg "sim_peak_queue_depth"
         ~help:"Deepest channel reservation queue observed")
      (float_of_int (Wormhole.peak_queue_depth engine));
    Metrics.set_max
      (Metrics.gauge mreg "sim_peak_messages_in_flight"
         ~help:"Most messages simultaneously generated but undelivered")
      (float_of_int !peak_live);
    Metrics.set (Metrics.gauge mreg "sim_phase_end" ~labels:[ ("phase", "warmup") ]) !warmup_end;
    Metrics.set (Metrics.gauge mreg "sim_phase_end" ~labels:[ ("phase", "measure") ]) !measure_end;
    Metrics.set (Metrics.gauge mreg "sim_phase_end" ~labels:[ ("phase", "drain") ]) end_time;
    Metrics.observe
      (Metrics.histogram mreg "sim_run_wall_seconds" ~lo:0. ~hi:60. ~bins:24
         ~help:"Wall-clock seconds per simulation run")
      wall_seconds
  end;
  Trace.finish finalize_sp;
  Trace.attr_int run_sp "events" (Wormhole.events_processed engine);
  Trace.attr_int run_sp "delivered" !delivered;
  {
    latency = summarize all p50 p90 p99 p999;
    (* The side summaries track moments only: their quantile slots are
       nan and render as `--`. *)
    intra_latency = Summary.of_welford intra ~p50:nan ~p90:nan ~p99:nan ~p999:nan;
    inter_latency = Summary.of_welford inter ~p50:nan ~p90:nan ~p99:nan ~p999:nan;
    ci95_half_width = Fatnet_stats.Batch_means.half_width batches ~confidence:0.95;
    generated = !generated;
    delivered = !delivered;
    end_time;
    events = Wormhole.events_processed engine;
    wall_seconds;
    bottlenecks;
  }

(* ---- one simulated point ---- *)

type point = { summary : Summary.t; ci_half_width : float; replications : int; events : int }

(* The statistic the stopping rule converges: the run's mean, or one
   of the quantile-ladder P² estimates. *)
let target_value (target : Scenario.target) (r : result) =
  match target with
  | Mean -> r.latency.Summary.mean
  | Quantile q -> Summary.quantile r.latency q

(* Student-t half-width over the replication means; [nan] below two
   replications, like {!Fatnet_stats.Batch_means.half_width}. *)
let rep_half_width ~confidence means =
  match means with
  | [] | [ _ ] -> nan
  | ms ->
      let w = Welford.create () in
      List.iter (Welford.add w) ms;
      let k = Welford.count w in
      Fatnet_stats.Batch_means.t_critical ~confidence ~df:(k - 1)
      *. Welford.stddev w /. sqrt (float_of_int k)

let replicate ?metrics (replication : Scenario.replication) (s : Scenario.t) =
  if replication.min_reps < 1 || replication.max_reps < replication.min_reps then
    invalid_arg "Runner.run_point: need 1 <= min_reps <= max_reps";
  if not (replication.target_rel > 0.) then
    invalid_arg "Runner.run_point: target_rel must be positive";
  let protocol = s.Scenario.protocol in
  (* Replication k's seed is the k-th output of a SplitMix64 stream
     seeded by the point's own seed: per-replication streams are
     deterministic, decorrelated, and independent of how many
     replications end up running or on which domain they run. *)
  let seeder = Fatnet_prng.Splitmix64.create protocol.Scenario.seed in
  let tr = Trace.ambient () in
  let results = ref [] in
  let stop = ref false in
  while not !stop do
    let seed = Fatnet_prng.Splitmix64.next seeder in
    let r =
      Trace.in_span tr "replication" (fun sp ->
          Trace.attr_int sp "rep" (List.length !results);
          run_scenario ?metrics { s with Scenario.protocol = { protocol with Scenario.seed } })
    in
    results := r :: !results;
    let k = List.length !results in
    if k >= replication.max_reps then stop := true
    else if k >= replication.min_reps then begin
      let targets = List.rev_map (target_value replication.target) !results in
      let hw = rep_half_width ~confidence:replication.confidence targets in
      let grand = List.fold_left ( +. ) 0. targets /. float_of_int k in
      let rel = if grand = 0. || Float.is_nan hw then nan else Float.abs (hw /. grand) in
      if Float.is_nan rel then ()
      else if rel <= replication.target_rel then stop := true
      else begin
        (* Futility: project the relative half-width at the cap — the
           standard error shrinks like 1/sqrt(k) and the Student-t
           critical value drops from its small-df inflation to the
           cap's — and stop now if even the full budget cannot reach
           the target, reporting the wide interval instead of burning
           the cap.  This is what keeps deeply saturated points
           (whose CI never converges) cheap. *)
        let crit df = Fatnet_stats.Batch_means.t_critical ~confidence:replication.confidence ~df in
        let projected =
          rel
          *. (crit (replication.max_reps - 1) /. crit (k - 1))
          *. sqrt (float_of_int k /. float_of_int replication.max_reps)
        in
        if projected > replication.target_rel then stop := true
      end
    end
  done;
  let reps = List.rev !results in
  {
    (* Moments pool exactly, quantiles merge count-weighted — the
       documented Summary.merge semantics. *)
    summary = Summary.merge (List.map (fun r -> r.latency) reps);
    ci_half_width =
      rep_half_width ~confidence:replication.confidence
        (List.map (target_value replication.target) reps);
    replications = List.length reps;
    events = List.fold_left (fun a (r : result) -> a + r.events) 0 reps;
  }

let run_point ?metrics (s : Scenario.t) =
  match s.Scenario.replication with
  | Some replication -> replicate ?metrics replication s
  | None ->
      let r = run_scenario ?metrics s in
      {
        summary = r.latency;
        ci_half_width = r.ci95_half_width;
        replications = 1;
        events = r.events;
      }

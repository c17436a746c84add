type message = {
  segments : int array array;
  flits : int;
  on_delivered : float -> unit;
  mutable bottleneck : float; (* slowest hop seen so far *)
}

type event = Head of message * int * int (* segment index, hop index *) | Callback of (float -> unit)

type t = {
  hop_time : float array;
  free_at : float array;
  queue : event Event_queue.t;
  mutable clock : float;
  mutable events : int;
}

let create ~channel_count ~hop_time =
  if channel_count <= 0 then invalid_arg "Worm_approx.create: channel_count must be positive";
  let times = Array.init channel_count hop_time in
  Array.iter
    (fun tau -> if not (tau > 0.) then invalid_arg "Worm_approx.create: hop times must be positive")
    times;
  {
    hop_time = times;
    free_at = Array.make channel_count 0.;
    queue = Event_queue.create ();
    clock = 0.;
    events = 0;
  }

let now t = t.clock

let schedule t ~time f =
  if time < t.clock then invalid_arg "Worm_approx.schedule: time in the past";
  Event_queue.push t.queue ~time (Callback f)

let submit t ~time ~segments ~flits ~on_delivered =
  if segments = [] then invalid_arg "Worm_approx.submit: no segments";
  if flits < 1 then invalid_arg "Worm_approx.submit: flits >= 1";
  List.iter
    (fun seg ->
      if Array.length seg = 0 then invalid_arg "Worm_approx.submit: empty segment";
      Array.iter
        (fun c ->
          if c < 0 || c >= Array.length t.hop_time then
            invalid_arg "Worm_approx.submit: channel id")
        seg)
    segments;
  let m = { segments = Array.of_list segments; flits; on_delivered; bottleneck = 0. } in
  Event_queue.push t.queue ~time (Head (m, 0, 0))

let handle_head t m s k =
  let seg = m.segments.(s) in
  let c = seg.(k) in
  let tau = t.hop_time.(c) in
  let start = Float.max t.clock t.free_at.(c) in
  (* The model's per-stage service: the channel is busy for the whole
     message transfer at local speed. *)
  t.free_at.(c) <- start +. (float_of_int m.flits *. tau);
  if tau > m.bottleneck then m.bottleneck <- tau;
  let head_out = start +. tau in
  if k + 1 < Array.length seg then Event_queue.push t.queue ~time:head_out (Head (m, s, k + 1))
  else if s + 1 < Array.length m.segments then
    (* The C/D cuts the head straight through to the next network. *)
    Event_queue.push t.queue ~time:head_out (Head (m, s + 1, 0))
  else begin
    (* Tail: one pipeline drain behind the head, paced by the slowest
       hop crossed anywhere along the way. *)
    let tail = head_out +. (float_of_int (m.flits - 1) *. m.bottleneck) in
    if tail <= t.clock then m.on_delivered t.clock
    else Event_queue.push t.queue ~time:tail (Callback m.on_delivered)
  end

let run t =
  let continue = ref true in
  while !continue do
    match Event_queue.pop t.queue with
    | None -> continue := false
    | Some (time, ev) ->
        t.clock <- time;
        t.events <- t.events + 1;
        (match ev with
        | Head (m, s, k) -> handle_head t m s k
        | Callback f -> f time)
  done

let events_processed t = t.events

type result = {
  mean_latency : float;
  intra_mean : float;
  inter_mean : float;
  delivered : int;
  events : int;
  wall_seconds : float;
}

let simulate ?(config = Runner.default_config) ~system ~message ~lambda_g () =
  if not (lambda_g > 0.) then invalid_arg "Worm_approx.simulate: lambda_g must be positive";
  let wall_start = Fatnet_obs.Metrics.now_seconds () in
  let net = System_net.create ~system ~message in
  let space = System_net.space net in
  let total_nodes = Fatnet_workload.Node_space.total_nodes space in
  let engine =
    create ~channel_count:(System_net.channel_count net) ~hop_time:(System_net.hop_time net)
  in
  let rng = Fatnet_prng.Rng.create ~seed:config.Runner.seed () in
  let quota = config.Runner.warmup + config.Runner.measured + config.Runner.drain in
  let generated = ref 0 in
  let all = Fatnet_stats.Welford.create () in
  let intra = Fatnet_stats.Welford.create () in
  let inter = Fatnet_stats.Welford.create () in
  let arrival = Fatnet_workload.Arrival.Poisson lambda_g in
  let launch src t0 =
    let serial = !generated in
    generated := !generated + 1;
    let dst = Fatnet_workload.Destination.draw config.Runner.destination space rng ~src in
    let ci, _ = Fatnet_workload.Node_space.of_global space src in
    let cj, _ = Fatnet_workload.Node_space.of_global space dst in
    let pick_port c =
      let ports = System_net.cd_port_count net c in
      if ports <= 1 then 0 else Fatnet_prng.Rng.int rng ports
    in
    let icn2_choice =
      let choices = System_net.icn2_ascent_choices net in
      if choices <= 1 then 0 else Fatnet_prng.Rng.int rng choices
    in
    let segments =
      System_net.segments net ~src ~dst ~egress_port:(pick_port ci)
        ~ingress_port:(pick_port cj) ~icn2_choice
    in
    let measured =
      serial >= config.Runner.warmup && serial < config.Runner.warmup + config.Runner.measured
    in
    let is_intra = List.length segments = 1 in
    submit engine ~time:t0 ~segments ~flits:message.Fatnet_model.Params.length_flits
      ~on_delivered:(fun finish ->
        if measured then begin
          let l = finish -. t0 in
          Fatnet_stats.Welford.add all l;
          Fatnet_stats.Welford.add (if is_intra then intra else inter) l
        end)
  in
  let rec node_stream node time =
    if !generated < quota then begin
      launch node time;
      schedule_next node time
    end
  and schedule_next node time =
    let dt = Fatnet_workload.Arrival.next_interval arrival rng in
    schedule engine ~time:(time +. dt) (fun t -> node_stream node t)
  in
  for node = 0 to total_nodes - 1 do
    schedule_next node 0.
  done;
  run engine;
  {
    mean_latency = Fatnet_stats.Welford.mean all;
    intra_mean = Fatnet_stats.Welford.mean intra;
    inter_mean = Fatnet_stats.Welford.mean inter;
    delivered = Fatnet_stats.Welford.count all;
    events = events_processed engine;
    wall_seconds = Fatnet_obs.Metrics.now_seconds () -. wall_start;
  }

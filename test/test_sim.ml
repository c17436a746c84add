(* Tests for the simulator substrate: event queue ordering, wormhole
   mechanics (pipelining, blocking, FIFO contention), network
   construction and the runner protocol. *)

module EQ = Fatnet_sim.Event_queue
module WH = Fatnet_sim.Wormhole
module Net = Fatnet_sim.Network
module SN = Fatnet_sim.System_net
module Runner = Fatnet_sim.Runner
module Presets = Fatnet_model.Presets

let check_float = Alcotest.(check (float 1e-9))

(* ---- Event queue ---- *)

let event_queue_orders_by_time () =
  let q = EQ.create () in
  List.iter (fun (t, v) -> EQ.push q ~time:t v) [ (3., "c"); (1., "a"); (2., "b") ];
  let order = List.init 3 (fun _ -> match EQ.pop q with Some (_, v) -> v | None -> "?") in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] order

let event_queue_fifo_ties () =
  let q = EQ.create () in
  List.iter (fun v -> EQ.push q ~time:1. v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> match EQ.pop q with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "insertion order at equal times" [ 1; 2; 3; 4 ] order

let event_queue_empty () =
  let q : int EQ.t = EQ.create () in
  Alcotest.(check bool) "empty" true (EQ.is_empty q);
  Alcotest.(check bool) "pop none" true (EQ.pop q = None);
  Alcotest.(check bool) "peek none" true (EQ.peek_time q = None)

let event_queue_rejects_bad_times () =
  let q : int EQ.t = EQ.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.push: time must be finite and non-negative")
    (fun () -> EQ.push q ~time:nan 1)

let event_queue_heap_property =
  QCheck.Test.make ~name:"pops come out sorted" ~count:200
    QCheck.(list (float_range 0. 1000.))
    (fun ts ->
      let q = EQ.create () in
      List.iter (fun t -> EQ.push q ~time:t ()) ts;
      let rec drain acc =
        match EQ.pop q with Some (t, ()) -> drain (t :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort Float.compare ts)

(* Differential oracle: the seed's boxed binary heap, kept verbatim in
   reference_event_queue.ml, must agree with the SoA 4-ary heap on
   every pop — time ties (frequent under a discrete time grid)
   resolving in FIFO push order included. *)
let event_queue_matches_reference =
  QCheck.Test.make ~name:"SoA heap matches the boxed reference heap" ~count:300
    QCheck.(list (option (int_range 0 9)))
    (fun ops ->
      let module RQ = Reference_event_queue in
      let q = EQ.create () and r = RQ.create () in
      let id = ref 0 in
      let ok = ref true in
      let pop_both () = if EQ.pop q <> RQ.pop r then ok := false in
      List.iter
        (function
          | Some t ->
              let time = float_of_int t in
              EQ.push q ~time !id;
              RQ.push r ~time !id;
              incr id
          | None -> pop_both ())
        ops;
      if EQ.length q <> RQ.length r then ok := false;
      while not (EQ.is_empty q && RQ.is_empty r) do
        pop_both ()
      done;
      !ok)

(* ---- Wormhole engine on a synthetic linear network ---- *)

(* A chain of [n] channels with unit hop time; channel n-1 is the
   ejection.  Useful for hand-computable pipelining checks. *)
let linear_engine ?(tau = fun _ -> 1.) n =
  WH.create ~channel_count:n ~hop_time:tau ~is_ejection:(fun c -> c = n - 1) ()

let pipeline_latency () =
  (* M flits over L unit channels: tail delivered at L + (M-1). *)
  let engine = linear_engine 4 in
  let finish = ref nan in
  WH.submit engine ~time:0. ~route:[| 0; 1; 2; 3 |] ~flits:5
    ~on_delivered:(fun t -> finish := t) ();
  WH.run engine;
  check_float "wormhole pipeline" (4. +. 4.) !finish

let pipeline_bottleneck () =
  (* Mixed speeds: pace is set by the slowest channel. *)
  let tau c = if c = 1 then 3. else 1. in
  let engine = linear_engine ~tau 3 in
  let finish = ref nan in
  WH.submit engine ~time:0. ~route:[| 0; 1; 2 |] ~flits:4 ~on_delivered:(fun t -> finish := t) ();
  WH.run engine;
  (* head: 1+3+1 = 5; remaining 3 flits each 3 behind on the bottleneck,
     final hop 1: tail = 1 + 3 + 3*3 + 1 = 14 *)
  check_float "bottleneck pacing" 14. !finish

let single_flit_message () =
  let engine = linear_engine 3 in
  let finish = ref nan in
  WH.submit engine ~time:0. ~route:[| 0; 1; 2 |] ~flits:1 ~on_delivered:(fun t -> finish := t) ();
  WH.run engine;
  check_float "head-only worm" 3. !finish

let fifo_contention () =
  (* Two worms sharing the full path: second starts after the first's
     tail frees the injection channel. *)
  let engine = linear_engine 2 in
  let t1 = ref nan and t2 = ref nan in
  WH.submit engine ~time:0. ~route:[| 0; 1 |] ~flits:3 ~on_delivered:(fun t -> t1 := t) ();
  WH.submit engine ~time:0. ~route:[| 0; 1 |] ~flits:3 ~on_delivered:(fun t -> t2 := t) ();
  WH.run engine;
  (* pipeline: L + (M-1) = 2 + 2 *)
  check_float "first worm" 4. !t1;
  Alcotest.(check bool) "second delayed" true (!t2 > !t1);
  (* channel 0 frees when worm 1's tail enters channel 1 (t=3); worm 2
     then needs its own 4 units *)
  check_float "second worm" 7. !t2

let blocking_holds_worm () =
  (* Worm B's path shares channel 2 with worm A; B must wait until
     A's tail clears it, and the engine must fully drain. *)
  let tau _ = 1. in
  let engine =
    WH.create ~channel_count:6 ~hop_time:tau
      ~is_ejection:(fun c -> c = 3 || c = 5)
      ()
  in
  let done_a = ref nan and done_b = ref nan in
  WH.submit engine ~time:0. ~route:[| 0; 2; 3 |] ~flits:4 ~on_delivered:(fun t -> done_a := t) ();
  WH.submit engine ~time:0.5 ~route:[| 1; 2; 4; 5 |] ~flits:4
    ~on_delivered:(fun t -> done_b := t) ();
  WH.run engine;
  Alcotest.(check bool) "a done" true (Float.is_finite !done_a);
  Alcotest.(check bool) "b done after a" true (!done_b > !done_a);
  Alcotest.(check int) "no stuck reservations" 0 (WH.busy_channels engine)

let gated_worm_waits_for_release () =
  let engine = linear_engine 2 in
  let finish = ref nan in
  let g = WH.submit_gated engine ~route:[| 0; 1 |] ~flits:2 ~on_delivered:(fun t -> finish := t) () in
  (* Release flits at t=10 and t=12 via scheduled callbacks. *)
  WH.schedule engine ~time:10. (fun _ -> WH.release_flit engine g 0);
  WH.schedule engine ~time:12. (fun _ -> WH.release_flit engine g 1);
  WH.run engine;
  (* head enters at 10, tail released 12, crosses both channels: 14 *)
  check_float "gated timing" 14. !finish

let release_out_of_order_rejected () =
  let engine = linear_engine 2 in
  let g = WH.submit_gated engine ~route:[| 0; 1 |] ~flits:3 ~on_delivered:ignore () in
  WH.schedule engine ~time:1. (fun _ ->
      Alcotest.check_raises "order enforced"
        (Invalid_argument "Wormhole.release_flit: flits must be released in order") (fun () ->
          WH.release_flit engine g 2));
  WH.run engine

let per_flit_delivery_callbacks () =
  let engine = linear_engine 2 in
  let seen = ref [] in
  WH.submit engine ~time:0. ~route:[| 0; 1 |] ~flits:3
    ~on_flit_delivered:(fun j t -> seen := (j, t) :: !seen)
    ~on_delivered:ignore ();
  WH.run engine;
  let seen = List.rev !seen in
  Alcotest.(check int) "three flits" 3 (List.length seen);
  List.iteri
    (fun i (j, t) ->
      Alcotest.(check int) "flit order" i j;
      check_float "flit timing" (2. +. float_of_int i) t)
    seen

let engine_validates_routes () =
  let engine = linear_engine 3 in
  Alcotest.check_raises "mid-route ejection"
    (Invalid_argument "Wormhole.submit: route must end (and only end) in an ejection channel")
    (fun () -> WH.submit engine ~time:0. ~route:[| 2; 0 |] ~flits:1 ~on_delivered:ignore ());
  Alcotest.check_raises "empty" (Invalid_argument "Wormhole.submit: empty route") (fun () ->
      WH.submit engine ~time:0. ~route:[||] ~flits:1 ~on_delivered:ignore ())

let latency_never_below_physical_minimum =
  QCheck.Test.make ~name:"delivery never beats the zero-load pipeline bound" ~count:40
    QCheck.(pair small_int (int_range 2 20))
    (fun (seed, count) ->
      let rng = Fatnet_prng.Rng.create ~seed:(Int64.of_int seed) () in
      (* random heterogeneous hop times on a small tree *)
      let net =
        Net.create ~m:4 ~n:2
          ~node_hop_time:(0.5 +. Fatnet_prng.Rng.float rng)
          ~switch_hop_time:(0.5 +. Fatnet_prng.Rng.float rng)
          ~with_aux:false
      in
      let engine =
        WH.create ~channel_count:(Net.channel_count net) ~hop_time:(Net.hop_time net)
          ~is_ejection:(Net.is_ejection net) ()
      in
      let flits = 1 + Fatnet_prng.Rng.int rng 16 in
      let ok = ref true in
      for _ = 1 to count do
        let src = Fatnet_prng.Rng.int rng 8 in
        let dst = Fatnet_prng.Rng.int_excluding rng 8 ~excluding:src in
        let t0 = Fatnet_prng.Rng.uniform rng ~lo:0. ~hi:10. in
        let route = Net.route net ~src:(Net.Leaf src) ~dst:(Net.Leaf dst) in
        let taus = Array.map (Net.hop_time net) route in
        let path = Array.fold_left ( +. ) 0. taus in
        let bottleneck = Array.fold_left Float.max 0. taus in
        let minimum = path +. (float_of_int (flits - 1) *. bottleneck) in
        WH.submit engine ~time:t0 ~route ~flits
          ~on_delivered:(fun t ->
            if t -. t0 < minimum -. 1e-9 then ok := false)
          ()
      done;
      WH.run engine;
      !ok && WH.busy_channels engine = 0)

let busy_time_bounded_by_clock =
  QCheck.Test.make ~name:"channel busy time never exceeds the clock" ~count:30
    QCheck.small_int
    (fun seed ->
      let net = Net.create ~m:4 ~n:2 ~node_hop_time:1. ~switch_hop_time:2. ~with_aux:false in
      let engine =
        WH.create ~channel_count:(Net.channel_count net) ~hop_time:(Net.hop_time net)
          ~is_ejection:(Net.is_ejection net) ()
      in
      let rng = Fatnet_prng.Rng.create ~seed:(Int64.of_int seed) () in
      for _ = 1 to 30 do
        let src = Fatnet_prng.Rng.int rng 8 in
        let dst = Fatnet_prng.Rng.int_excluding rng 8 ~excluding:src in
        WH.submit engine
          ~time:(Fatnet_prng.Rng.uniform rng ~lo:0. ~hi:5.)
          ~route:(Net.route net ~src:(Net.Leaf src) ~dst:(Net.Leaf dst))
          ~flits:8 ~on_delivered:ignore ()
      done;
      WH.run engine;
      let now = WH.now engine in
      let ok = ref true in
      for c = 0 to Net.channel_count net - 1 do
        let b = WH.channel_busy_time engine c in
        if b < -1e-9 || b > now +. 1e-9 then ok := false
      done;
      !ok)

let many_worms_all_deliver =
  QCheck.Test.make ~name:"random contention always drains" ~count:50
    QCheck.(pair small_int (int_range 1 60))
    (fun (seed, count) ->
      let net =
        Net.create ~m:4 ~n:2 ~node_hop_time:1. ~switch_hop_time:1. ~with_aux:false
      in
      let engine =
        WH.create ~channel_count:(Net.channel_count net) ~hop_time:(Net.hop_time net)
          ~is_ejection:(Net.is_ejection net) ()
      in
      let rng = Fatnet_prng.Rng.create ~seed:(Int64.of_int seed) () in
      let delivered = ref 0 in
      for _ = 1 to count do
        let src = Fatnet_prng.Rng.int rng 8 in
        let dst = Fatnet_prng.Rng.int_excluding rng 8 ~excluding:src in
        let t = Fatnet_prng.Rng.uniform rng ~lo:0. ~hi:20. in
        WH.submit engine ~time:t
          ~route:(Net.route net ~src:(Net.Leaf src) ~dst:(Net.Leaf dst))
          ~flits:8
          ~on_delivered:(fun _ -> incr delivered)
          ()
      done;
      WH.run engine;
      !delivered = count && WH.busy_channels engine = 0)

(* Tentpole equivalence: with streaming on, a worm that owns its whole
   remaining route is finished in closed form; the delivered stream
   must be bit-identical to the slow per-flit engine's.  Same-instant
   deliveries of unrelated worms carry no intrinsic order (see
   wormhole.ml), so streams are compared as time-sorted records —
   which still pins every delivery time bit-for-bit and the full
   cross-instant order.  Chained gated worms exercise the takeover in
   the same way the runner's cut-through C/D chains do. *)
let streaming_matches_slow_path =
  QCheck.Test.make ~name:"streaming fast path reproduces the slow engine" ~count:80
    QCheck.(pair small_int (int_range 1 60))
    (fun (seed, count) ->
      let net =
        Net.create ~m:4 ~n:2 ~node_hop_time:1. ~switch_hop_time:2. ~with_aux:false
      in
      let run_engine streaming =
        let engine =
          WH.create ~streaming ~channel_count:(Net.channel_count net)
            ~hop_time:(Net.hop_time net) ~is_ejection:(Net.is_ejection net) ()
        in
        let rng = Fatnet_prng.Rng.create ~seed:(Int64.of_int seed) () in
        let stream = ref [] in
        let record tag j time = stream := (time, tag, j) :: !stream in
        for i = 0 to count - 1 do
          let src = Fatnet_prng.Rng.int rng 8 in
          let dst = Fatnet_prng.Rng.int_excluding rng 8 ~excluding:src in
          let flits = 1 + Fatnet_prng.Rng.int rng 8 in
          let t = float_of_int (Fatnet_prng.Rng.int rng 20) in
          let route = Net.route net ~src:(Net.Leaf src) ~dst:(Net.Leaf dst) in
          if Fatnet_prng.Rng.int rng 2 = 0 then
            WH.submit engine ~time:t ~route ~flits ~on_flit_delivered:(record (2 * i))
              ~on_delivered:ignore ()
          else begin
            let src2 = Fatnet_prng.Rng.int rng 8 in
            let dst2 = Fatnet_prng.Rng.int_excluding rng 8 ~excluding:src2 in
            let route2 = Net.route net ~src:(Net.Leaf src2) ~dst:(Net.Leaf dst2) in
            let w2 =
              WH.submit_gated engine ~route:route2 ~flits
                ~on_flit_delivered:(record ((2 * i) + 1))
                ~on_delivered:ignore ()
            in
            WH.submit engine ~time:t ~route ~flits
              ~on_flit_delivered:(fun j _ -> WH.release_flit engine w2 j)
              ~on_delivered:ignore ()
          end
        done;
        WH.run engine;
        (List.sort compare !stream, WH.now engine, WH.busy_channels engine)
      in
      let fast, fast_end, fast_busy = run_engine true in
      let slow, slow_end, slow_busy = run_engine false in
      fast = slow && fast_end = slow_end && fast_busy = 0 && slow_busy = 0)

(* ---- Network wrapper ---- *)

let network_channel_counts () =
  let net = Net.create ~m:4 ~n:2 ~node_hop_time:1. ~switch_hop_time:2. ~with_aux:true in
  Alcotest.(check int) "aux ports = roots" 2 (Net.aux_port_count net);
  Alcotest.(check int) "channels = tree + 2/port"
    (Fatnet_topology.Mport_tree.channel_count (Net.tree net) + 4)
    (Net.channel_count net)

let network_aux_routes_valid () =
  let net = Net.create ~m:4 ~n:2 ~node_hop_time:1. ~switch_hop_time:2. ~with_aux:true in
  for x = 0 to Net.node_count net - 1 do
    for p = 0 to Net.aux_port_count net - 1 do
      let up = Net.route net ~src:(Net.Leaf x) ~dst:(Net.Aux_port p) in
      (* ascent: inject + (n-1) ups + aux eject = n+1 channels *)
      Alcotest.(check int) "ascent length" 3 (Array.length up);
      Alcotest.(check bool) "ends in ejection" true (Net.is_ejection net up.(2));
      let down = Net.route net ~src:(Net.Aux_port p) ~dst:(Net.Leaf x) in
      Alcotest.(check int) "descent length" 3 (Array.length down);
      Alcotest.(check bool) "ends at node" true (Net.is_ejection net down.(2))
    done
  done

let network_aux_hop_times () =
  let net = Net.create ~m:4 ~n:2 ~node_hop_time:1.5 ~switch_hop_time:2.5 ~with_aux:true in
  let up = Net.route net ~src:(Net.Leaf 0) ~dst:(Net.Aux_port 1) in
  check_float "injection" 1.5 (Net.hop_time net up.(0));
  check_float "up link" 2.5 (Net.hop_time net up.(1));
  check_float "aux link" 1.5 (Net.hop_time net up.(2))

let network_rejects_bad_routes () =
  let no_aux = Net.create ~m:4 ~n:1 ~node_hop_time:1. ~switch_hop_time:1. ~with_aux:false in
  Alcotest.check_raises "no aux" (Invalid_argument "Network.route: network has no aux ports")
    (fun () -> ignore (Net.route no_aux ~src:(Net.Leaf 0) ~dst:(Net.Aux_port 0)))

(* ---- System net ---- *)

let message = Presets.message ~m_flits:8 ~d_m_bytes:256.

let small_system =
  Fatnet_model.Params.homogeneous ~m:4 ~tree_depth:2 ~clusters:4 ~icn1:Presets.net1
    ~ecn1:Presets.net2 ~icn2:Presets.net1

let system_net_segments () =
  let net = SN.create ~system:small_system ~message in
  let intra = SN.segments net ~src:0 ~dst:3 ~egress_port:0 ~ingress_port:0 ~icn2_choice:0 in
  Alcotest.(check int) "intra one segment" 1 (List.length intra);
  let inter = SN.segments net ~src:0 ~dst:12 ~egress_port:1 ~ingress_port:0 ~icn2_choice:0 in
  Alcotest.(check int) "inter three segments" 3 (List.length inter);
  List.iter
    (fun seg ->
      let last = seg.(Array.length seg - 1) in
      Alcotest.(check bool) "segment ends in ejection" true (SN.is_ejection net last);
      Array.iteri
        (fun i c ->
          if i < Array.length seg - 1 then
            Alcotest.(check bool) "no mid-segment ejection" false (SN.is_ejection net c))
        seg)
    inter

let system_net_segments_disjoint_networks () =
  (* the three inter segments use disjoint channel id ranges *)
  let net = SN.create ~system:small_system ~message in
  match SN.segments net ~src:0 ~dst:12 ~egress_port:0 ~ingress_port:1 ~icn2_choice:1 with
  | [ s1; s2; s3 ] ->
      let ranges = List.map (fun s -> Array.fold_left max 0 s) [ s1; s2; s3 ] in
      ignore ranges;
      let sets = List.map (fun s -> Array.to_list s) [ s1; s2; s3 ] in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b ->
              if i < j then
                List.iter
                  (fun c -> Alcotest.(check bool) "disjoint" false (List.mem c b))
                  a)
            sets)
        sets
  | _ -> Alcotest.fail "expected three segments"

(* ---- Runner ---- *)

let runner_protocol_counts () =
  let config = { Runner.quick_config with Runner.warmup = 50; measured = 200; drain = 50 } in
  let r = Runner.run ~config ~system:small_system ~message ~lambda_g:1e-3 () in
  Alcotest.(check int) "generated = warmup+measured+drain" 300 r.Runner.generated;
  Alcotest.(check int) "all measured delivered" 200 r.Runner.delivered;
  Alcotest.(check int) "summary count" 200 r.Runner.latency.Fatnet_stats.Summary.count

let runner_deterministic () =
  let config = { Runner.quick_config with Runner.warmup = 20; measured = 100; drain = 20 } in
  let a = Runner.run ~config ~system:small_system ~message ~lambda_g:1e-3 () in
  let b = Runner.run ~config ~system:small_system ~message ~lambda_g:1e-3 () in
  check_float "same seed, same mean" a.Runner.latency.Fatnet_stats.Summary.mean
    b.Runner.latency.Fatnet_stats.Summary.mean

let runner_seed_changes_result () =
  let config = { Runner.quick_config with Runner.warmup = 20; measured = 100; drain = 20 } in
  let a = Runner.run ~config ~system:small_system ~message ~lambda_g:1e-3 () in
  let b =
    Runner.run
      ~config:{ config with Runner.seed = 999L }
      ~system:small_system ~message ~lambda_g:1e-3 ()
  in
  Alcotest.(check bool) "different seeds differ" true
    (a.Runner.latency.Fatnet_stats.Summary.mean
    <> b.Runner.latency.Fatnet_stats.Summary.mean)

let runner_latency_increases_with_load () =
  let config = { Runner.quick_config with Runner.warmup = 100; measured = 1000; drain = 100 } in
  let mean lambda_g =
    (Runner.run ~config ~system:small_system ~message ~lambda_g ()).Runner.latency
      .Fatnet_stats.Summary.mean
  in
  let light = mean 1e-4 and heavy = mean 5e-3 in
  Alcotest.(check bool) "load raises latency" true (heavy > light)

let runner_intra_inter_split () =
  let config = { Runner.quick_config with Runner.warmup = 50; measured = 500; drain = 50 } in
  let r = Runner.run ~config ~system:small_system ~message ~lambda_g:1e-3 () in
  Alcotest.(check int) "classes partition the batch"
    r.Runner.latency.Fatnet_stats.Summary.count
    (r.Runner.intra_latency.Fatnet_stats.Summary.count
    + r.Runner.inter_latency.Fatnet_stats.Summary.count);
  Alcotest.(check bool) "inter slower than intra" true
    (r.Runner.inter_latency.Fatnet_stats.Summary.mean
    > r.Runner.intra_latency.Fatnet_stats.Summary.mean)

let runner_store_and_forward_slower () =
  let config = { Runner.quick_config with Runner.warmup = 50; measured = 500; drain = 50 } in
  let mean mode =
    (Runner.run
       ~config:{ config with Runner.cd_mode = mode }
       ~system:small_system ~message ~lambda_g:1e-3 ())
      .Runner.inter_latency.Fatnet_stats.Summary.mean
  in
  Alcotest.(check bool) "store-and-forward costs more" true
    (mean Runner.Store_and_forward > mean Runner.Cut_through)

let runner_confidence_interval () =
  let config = { Runner.quick_config with Runner.warmup = 50; measured = 3000; drain = 50 } in
  let r = Runner.run ~config ~system:small_system ~message ~lambda_g:1e-3 () in
  Alcotest.(check bool) "CI is positive and finite" true
    (Float.is_finite r.Runner.ci95_half_width && r.Runner.ci95_half_width > 0.);
  Alcotest.(check bool) "CI is small relative to the mean" true
    (r.Runner.ci95_half_width < r.Runner.latency.Fatnet_stats.Summary.mean)

let runner_bottleneck_report () =
  let config = { Runner.quick_config with Runner.warmup = 50; measured = 1000; drain = 50 } in
  let r = Runner.run ~config ~system:small_system ~message ~lambda_g:2e-3 () in
  Alcotest.(check int) "five entries" 5 (List.length r.Runner.bottlenecks);
  let utils = List.map snd r.Runner.bottlenecks in
  Alcotest.(check bool) "utilizations in [0,1]" true
    (List.for_all (fun u -> u >= 0. && u <= 1.) utils);
  Alcotest.(check bool) "sorted descending" true
    (List.sort (fun a b -> Float.compare b a) utils = utils)

let runner_single_cluster_all_intra () =
  let solo =
    Fatnet_model.Params.homogeneous ~m:4 ~tree_depth:2 ~clusters:1 ~icn1:Presets.net1
      ~ecn1:Presets.net2 ~icn2:Presets.net1
  in
  let config = { Runner.quick_config with Runner.warmup = 10; measured = 100; drain = 10 } in
  let r = Runner.run ~config ~system:solo ~message ~lambda_g:1e-3 () in
  Alcotest.(check int) "no inter traffic" 0 r.Runner.inter_latency.Fatnet_stats.Summary.count

let runner_trace_complete () =
  let records = ref [] in
  let config =
    {
      Runner.quick_config with
      Runner.warmup = 20;
      measured = 100;
      drain = 20;
      trace = Some (fun r -> records := r :: !records);
    }
  in
  let r = Runner.run ~config ~system:small_system ~message ~lambda_g:1e-3 () in
  Alcotest.(check int) "every generated message is traced" r.Runner.generated
    (List.length !records);
  Alcotest.(check int) "measured flags match" 100
    (List.length
       (List.filter (fun (t : Runner.trace_record) -> t.Runner.measured) !records));
  List.iter
    (fun (t : Runner.trace_record) ->
      Alcotest.(check bool) "delivery after generation" true
        (t.Runner.delivered_at > t.Runner.generated_at))
    !records

(* Telemetry must be a pure observer: a run with a live registry has
   to reproduce the metrics-off run bit for bit (instrumentation never
   touches the event schedule), while the snapshot's own counters must
   agree with the result record. *)
let runner_metrics_transparent () =
  let module Metrics = Fatnet_obs.Metrics in
  let config = { Runner.quick_config with Runner.warmup = 50; measured = 500; drain = 50 } in
  let off = Runner.run ~config ~system:small_system ~message ~lambda_g:1e-3 () in
  let reg = Metrics.create () in
  let on =
    Runner.run
      ~config:{ config with Runner.metrics = reg }
      ~system:small_system ~message ~lambda_g:1e-3 ()
  in
  let hex = Printf.sprintf "%h" in
  Alcotest.(check string) "mean latency bits"
    (hex off.Runner.latency.Fatnet_stats.Summary.mean)
    (hex on.Runner.latency.Fatnet_stats.Summary.mean);
  Alcotest.(check string) "end time bits" (hex off.Runner.end_time) (hex on.Runner.end_time);
  Alcotest.(check int) "event count" off.Runner.events on.Runner.events;
  let snap = Metrics.snapshot reg in
  let counter name =
    match Metrics.Snapshot.find snap name with
    | Some (Metrics.Snapshot.Counter n) -> n
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "sim_events agrees" on.Runner.events (counter "sim_events");
  Alcotest.(check int) "sim_messages_generated agrees" on.Runner.generated
    (counter "sim_messages_generated");
  Alcotest.(check int) "sim_messages_delivered agrees" on.Runner.delivered
    (counter "sim_messages_delivered");
  let utilization =
    List.filter
      (fun (s : Metrics.Snapshot.series) -> s.Metrics.Snapshot.name = "sim_channel_utilization")
      snap.Metrics.Snapshot.series
  in
  Alcotest.(check bool) "channel utilization histograms present" true (utilization <> []);
  List.iter
    (fun (s : Metrics.Snapshot.series) ->
      Alcotest.(check bool) "labelled by network and level" true
        (List.mem_assoc "network" s.Metrics.Snapshot.labels
        && List.mem_assoc "level" s.Metrics.Snapshot.labels))
    utilization

(* Regression: with [drain = 0] no message carries the serial that
   stamps the measure-phase end, so the phase gauge used to stay NaN
   and leak into the exported snapshot.  The gauges must be finite for
   every phase, and the JSON snapshot must survive a round trip (the
   'fatnet report' path). *)
let runner_drain_zero_metrics_finite () =
  let module Metrics = Fatnet_obs.Metrics in
  let config = { Runner.quick_config with Runner.warmup = 50; measured = 500; drain = 0 } in
  let reg = Metrics.create () in
  let r =
    Runner.run
      ~config:{ config with Runner.metrics = reg }
      ~system:small_system ~message ~lambda_g:1e-3 ()
  in
  let snap = Metrics.snapshot reg in
  let phase_end phase =
    match Metrics.Snapshot.find ~labels:[ ("phase", phase) ] snap "sim_phase_end" with
    | Some (Metrics.Snapshot.Gauge g) -> g
    | _ -> Alcotest.failf "missing sim_phase_end{phase=%s}" phase
  in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "sim_phase_end{phase=%s} finite" phase)
        true
        (Float.is_finite (phase_end phase)))
    [ "warmup"; "measure"; "drain" ];
  Alcotest.(check (float 0.)) "measure phase ends where the run does" r.Runner.end_time
    (phase_end "measure");
  let json = Metrics.Snapshot.to_json snap in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "no non-finite value in the snapshot" false
    (contains json "\"nan\"" || contains json "\"inf\"" || contains json "\"-inf\"");
  match Metrics.Snapshot.of_json json with
  | Error e -> Alcotest.failf "snapshot does not re-read: %s" e
  | Ok reread ->
      Alcotest.(check int) "round trip preserves every series"
        (List.length snap.Metrics.Snapshot.series)
        (List.length reread.Metrics.Snapshot.series)

(* Golden determinism regression: full quick_config runs on both paper
   organizations and both C/D modes, pinned bit-for-bit (means are
   compared as %h images).  These values were captured from the slow
   per-flit engine; the streaming engine reproducing them exactly is
   the integrated form of the equivalence property above, and any
   unintended change to event ordering, float evaluation order or the
   PRNG stream shows up here as a bit difference. *)
let runner_golden_determinism () =
  let message = Presets.message ~m_flits:32 ~d_m_bytes:256. in
  let hex = Printf.sprintf "%h" in
  let check name system mode golden_mean golden_end =
    let config = { Runner.quick_config with Runner.cd_mode = mode } in
    let r = Runner.run ~config ~system ~message ~lambda_g:1e-4 () in
    Alcotest.(check int) (name ^ ": delivered") 10_000 r.Runner.delivered;
    Alcotest.(check string)
      (name ^ ": mean latency bits")
      golden_mean
      (hex r.Runner.latency.Fatnet_stats.Summary.mean);
    Alcotest.(check string) (name ^ ": end time bits") golden_end (hex r.Runner.end_time)
  in
  check "org_544 cut-through" Presets.org_544 Runner.Cut_through "0x1.9040f8b313d1bp+5"
    "0x1.0c027fff24ec2p+18";
  check "org_544 store-and-forward" Presets.org_544 Runner.Store_and_forward
    "0x1.6ba289117470fp+6" "0x1.0c027fff24ec2p+18";
  check "org_1120 cut-through" Presets.org_1120 Runner.Cut_through "0x1.874e0479cb9bp+5"
    "0x1.3eb5837464098p+17";
  check "org_1120 store-and-forward" Presets.org_1120 Runner.Store_and_forward
    "0x1.655b917dbeaa1p+6" "0x1.3eb5837464098p+17"

(* ---- Worm_approx ---- *)

let approx_zero_load_pipeline () =
  (* single message, 3 unit-speed hops, 5 flits: head 3, tail 3 + 4 *)
  let engine = Fatnet_sim.Worm_approx.create ~channel_count:3 ~hop_time:(fun _ -> 1.) in
  let finish = ref nan in
  Fatnet_sim.Worm_approx.submit engine ~time:0. ~segments:[ [| 0; 1; 2 |] ] ~flits:5
    ~on_delivered:(fun t -> finish := t);
  Fatnet_sim.Worm_approx.run engine;
  check_float "pipeline estimate" 7. !finish

let approx_contention_serializes () =
  (* two messages sharing one channel: second waits M hops *)
  let engine = Fatnet_sim.Worm_approx.create ~channel_count:1 ~hop_time:(fun _ -> 1.) in
  let t1 = ref nan and t2 = ref nan in
  Fatnet_sim.Worm_approx.submit engine ~time:0. ~segments:[ [| 0 |] ] ~flits:4
    ~on_delivered:(fun t -> t1 := t);
  Fatnet_sim.Worm_approx.submit engine ~time:0. ~segments:[ [| 0 |] ] ~flits:4
    ~on_delivered:(fun t -> t2 := t);
  Fatnet_sim.Worm_approx.run engine;
  check_float "first" 4. !t1;
  check_float "second waits for the channel" 8. !t2

let approx_tracks_flit_engine () =
  let config = { Runner.quick_config with Runner.warmup = 200; measured = 2000; drain = 200 } in
  let lambda_g = 1e-3 in
  let flit =
    Runner.mean_latency ~config ~system:small_system ~message ~lambda_g ()
  in
  let approx =
    (Fatnet_sim.Worm_approx.simulate ~config ~system:small_system ~message ~lambda_g ())
      .Fatnet_sim.Worm_approx.mean_latency
  in
  let err = Float.abs (approx -. flit) /. flit in
  Alcotest.(check bool)
    (Printf.sprintf "engines agree at light load (%.1f%%)" (100. *. err))
    true (err < 0.25)

let approx_much_faster () =
  let config = { Runner.quick_config with Runner.warmup = 100; measured = 2000; drain = 100 } in
  let lambda_g = 1e-3 in
  let flit = Runner.run ~config ~system:small_system ~message ~lambda_g () in
  let approx = Fatnet_sim.Worm_approx.simulate ~config ~system:small_system ~message ~lambda_g () in
  Alcotest.(check bool) "at least 5x fewer events" true
    (approx.Fatnet_sim.Worm_approx.events * 5 < flit.Runner.events)

let () =
  Alcotest.run "sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "orders by time" `Quick event_queue_orders_by_time;
          Alcotest.test_case "fifo ties" `Quick event_queue_fifo_ties;
          Alcotest.test_case "empty" `Quick event_queue_empty;
          Alcotest.test_case "rejects bad times" `Quick event_queue_rejects_bad_times;
          QCheck_alcotest.to_alcotest event_queue_heap_property;
          QCheck_alcotest.to_alcotest event_queue_matches_reference;
        ] );
      ( "wormhole",
        [
          Alcotest.test_case "pipeline latency" `Quick pipeline_latency;
          Alcotest.test_case "bottleneck pacing" `Quick pipeline_bottleneck;
          Alcotest.test_case "single flit" `Quick single_flit_message;
          Alcotest.test_case "fifo contention" `Quick fifo_contention;
          Alcotest.test_case "blocking" `Quick blocking_holds_worm;
          Alcotest.test_case "gated worm" `Quick gated_worm_waits_for_release;
          Alcotest.test_case "release order" `Quick release_out_of_order_rejected;
          Alcotest.test_case "per-flit callbacks" `Quick per_flit_delivery_callbacks;
          Alcotest.test_case "route validation" `Quick engine_validates_routes;
          QCheck_alcotest.to_alcotest many_worms_all_deliver;
          QCheck_alcotest.to_alcotest latency_never_below_physical_minimum;
          QCheck_alcotest.to_alcotest busy_time_bounded_by_clock;
          QCheck_alcotest.to_alcotest streaming_matches_slow_path;
        ] );
      ( "network",
        [
          Alcotest.test_case "channel counts" `Quick network_channel_counts;
          Alcotest.test_case "aux routes" `Quick network_aux_routes_valid;
          Alcotest.test_case "aux hop times" `Quick network_aux_hop_times;
          Alcotest.test_case "rejects bad routes" `Quick network_rejects_bad_routes;
        ] );
      ( "system_net",
        [
          Alcotest.test_case "segments" `Quick system_net_segments;
          Alcotest.test_case "disjoint networks" `Quick system_net_segments_disjoint_networks;
        ] );
      ( "runner",
        [
          Alcotest.test_case "protocol counts" `Quick runner_protocol_counts;
          Alcotest.test_case "deterministic" `Quick runner_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick runner_seed_changes_result;
          Alcotest.test_case "load raises latency" `Quick runner_latency_increases_with_load;
          Alcotest.test_case "intra/inter split" `Quick runner_intra_inter_split;
          Alcotest.test_case "store-and-forward slower" `Quick runner_store_and_forward_slower;
          Alcotest.test_case "confidence interval" `Quick runner_confidence_interval;
          Alcotest.test_case "bottleneck report" `Quick runner_bottleneck_report;
          Alcotest.test_case "single cluster" `Quick runner_single_cluster_all_intra;
          Alcotest.test_case "trace" `Quick runner_trace_complete;
          Alcotest.test_case "metrics transparent" `Quick runner_metrics_transparent;
          Alcotest.test_case "drain=0 metrics finite" `Quick runner_drain_zero_metrics_finite;
          Alcotest.test_case "golden determinism" `Slow runner_golden_determinism;
        ] );
      ( "worm_approx",
        [
          Alcotest.test_case "zero-load pipeline" `Quick approx_zero_load_pipeline;
          Alcotest.test_case "contention" `Quick approx_contention_serializes;
          Alcotest.test_case "tracks flit engine" `Quick approx_tracks_flit_engine;
          Alcotest.test_case "much faster" `Quick approx_much_faster;
        ] );
    ]

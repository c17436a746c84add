(* Simulator throughput (BENCH_sim.json): each paper organization with
   cut-through and store-and-forward C/Ds, once with the per-flit state
   machine and once with the streaming fast path, recording events,
   wall seconds, events per second and allocated bytes per event.

   Both engines retire the same workload (identical traces, see the
   determinism tests), so the honest cross-engine throughput metric is
   the slow path's event count divided by each engine's wall time: the
   rate at which the engine disposes of the workload's flit-hop
   events, whether it processes them one by one or in closed form.
   The suite already runs [Scenario.quick_protocol], so --quick leaves
   it as it is. *)

module Runner = Fatnet_sim.Runner
module Presets = Fatnet_model.Presets
module Scenario = Fatnet_scenario.Scenario
open Harness

let scenarios =
  [
    ("org_544.cut_through", Presets.org_544, Scenario.Cut_through);
    ("org_544.store_fwd", Presets.org_544, Scenario.Store_and_forward);
    ("org_1120.cut_through", Presets.org_1120, Scenario.Cut_through);
    ("org_1120.store_fwd", Presets.org_1120, Scenario.Store_and_forward);
  ]

let run ~quick:_ =
  let measure streaming system cd_mode =
    let point = sim_point ~system { Scenario.quick_protocol with cd_mode; streaming } in
    let alloc0 = Gc.allocated_bytes () in
    let r = Runner.run_scenario point in
    (r, (Gc.allocated_bytes () -. alloc0) /. float_of_int r.Runner.events)
  in
  let slow_wall = ref 0. and fast_wall = ref 0. and workload = ref 0. in
  let rows =
    List.concat_map
      (fun (name, system, mode) ->
        let slow, slow_bpe = measure false system mode in
        let fast, fast_bpe = measure true system mode in
        let workload_events = float_of_int slow.Runner.events in
        slow_wall := !slow_wall +. slow.Runner.wall_seconds;
        fast_wall := !fast_wall +. fast.Runner.wall_seconds;
        workload := !workload +. workload_events;
        let engine label (r : Runner.result) bytes_per_event =
          let p = Printf.sprintf "%s.%s." name label in
          let events = float_of_int r.Runner.events and wall = r.Runner.wall_seconds in
          [
            row (p ^ "events") "events" events;
            row (p ^ "wall_seconds") "s" wall;
            row (p ^ "events_per_sec") "1/s" (events /. wall);
            row (p ^ "workload_events_per_sec") "1/s" (workload_events /. wall);
            row (p ^ "allocated_bytes_per_event") "B" bytes_per_event;
          ]
        in
        engine "per_flit" slow slow_bpe
        @ engine "streaming" fast fast_bpe
        @ [
            row (name ^ ".speedup") "x"
              (slow.Runner.wall_seconds /. fast.Runner.wall_seconds);
          ])
      scenarios
  in
  record ~suite:"sim" ~title:"fatnet_sim quick_config lambda_g=1e-4 m_flits=32"
    ~note:
      "per_flit is the per-flit state machine, streaming the closed-form fast path; \
       workload_events_per_sec divides the per-flit event count by each engine's wall, \
       the rate at which it retires the same workload"
    (rows
    @ [
        row "totals.workload_events" "events" !workload;
        row ~better:Higher "totals.per_flit_events_per_sec" "1/s" (!workload /. !slow_wall);
        row ~better:Higher "totals.streaming_events_per_sec" "1/s" (!workload /. !fast_wall);
        row ~better:Higher "totals.speedup" "x" (!slow_wall /. !fast_wall);
      ])

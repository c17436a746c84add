(* Instrumentation overhead (BENCH_obs.json): the org_544 cut-through
   workload on the streaming engine ([Harness.sim_protocol] keeps
   [Scenario.default_protocol]'s streaming = true), run interleaved
   with metrics disabled, with a live registry and with a live span
   trace (metrics off), best of five each way.  The disabled mode's
   sinks are the same code with no-op records, so the enabled
   overhead is an upper bound on what the instrumentation costs when
   it is off.  Span tracing records at phase granularity (a handful of
   spans per run, nothing per event), so a live trace must be workload
   noise too.  Gates: each overhead at most 1 % of the disabled
   throughput measured in the same process. *)

module Runner = Fatnet_sim.Runner
module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace
open Harness

let reps = 5

let run ~quick =
  let measured = if quick then 2000 else 4000 in
  let point = sim_point (sim_protocol measured) in
  let go metrics = Runner.run_scenario ~metrics point in
  let eps (r : Runner.result) = float_of_int r.Runner.events /. r.Runner.wall_seconds in
  (* Interleave the modes; wall-clock noise only ever slows a run down,
     so each mode's best throughput is the honest estimate. *)
  let disabled = ref 0. and enabled = ref 0. and traced = ref 0. in
  let events = ref 0 and series = ref 0 and spans = ref 0 in
  for _ = 1 to reps do
    let rd = go Metrics.disabled in
    events := rd.Runner.events;
    disabled := Float.max !disabled (eps rd);
    let reg = Metrics.create () in
    let re = go reg in
    series := List.length (Metrics.snapshot reg).Metrics.Snapshot.series;
    enabled := Float.max !enabled (eps re);
    let tr = Trace.create () in
    let rt = Trace.with_ambient tr (fun () -> go Metrics.disabled) in
    spans := List.length (Trace.spans tr);
    traced := Float.max !traced (eps rt)
  done;
  record ~suite:"obs"
    ~title:
      (Printf.sprintf
         "instrumentation overhead, org_544 cut-through streaming, %d measured messages, best of %d"
         measured reps)
    ~note:
      "overhead = 1 - mode events/s over disabled events/s, best of the interleaved runs \
       of each mode"
    ~gates:[ gate_max "enabled_overhead" 0.01; gate_max "trace_overhead" 0.01 ]
    [
      row "events" "events" (float_of_int !events);
      row ~better:Higher "disabled.events_per_sec" "1/s" !disabled;
      row "enabled.events_per_sec" "1/s" !enabled;
      row "enabled.series" "series" (float_of_int !series);
      row "trace.events_per_sec" "1/s" !traced;
      row "trace.spans_per_run" "spans" (float_of_int !spans);
      row ~better:Lower "enabled_overhead" "fraction" (1. -. (!enabled /. !disabled));
      row ~better:Lower "trace_overhead" "fraction" (1. -. (!traced /. !disabled));
    ]

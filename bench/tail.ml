(* The distribution-carrying result pipeline (BENCH_tail.json): the
   per-message bookkeeping a run performs is two Welford adds (all +
   intra|inter) plus the four-estimator P² quantile ladder.  The suite
   replays one synthetic latency stream through the moments-only
   accumulators and through the full pipeline, best of N each way, and
   converts the per-sample difference into a fraction of a real
   simulation run's wall time (per-flit and streaming engines,
   measured in the same process).  Gate: the worst fraction is at most
   5 %.  Model-side tail throughput ([Eval.quantile]:
   shifted-exponential mixture fit + bracketed inversion) is recorded
   alongside. *)

module Runner = Fatnet_sim.Runner
module Eval = Fatnet_model.Eval
module Welford = Fatnet_stats.Welford
module Quantile = Fatnet_stats.Quantile
open Harness

(* One synthetic latency stream shaped like the model's tail mixture
   (shifted exponential), replayed identically through both pipelines.
   The intra/inter split alternates the way a mixed workload does, so
   the scalar path performs its real two Welford adds per sample. *)
let stream samples =
  let rng = Fatnet_prng.Rng.create ~seed:7L () in
  Array.init samples (fun _ -> 150. +. (-200. *. log (1. -. Fatnet_prng.Rng.float rng)))

let replay_scalar samples =
  let all = Welford.create () and intra = Welford.create () and inter = Welford.create () in
  let (), wall =
    timed (fun () ->
        Array.iteri
          (fun i l ->
            Welford.add all l;
            Welford.add (if i land 1 = 0 then intra else inter) l)
          samples)
  in
  ignore (Welford.mean all);
  wall

let replay_distribution samples =
  let all = Welford.create () and intra = Welford.create () and inter = Welford.create () in
  let p50 = Quantile.create ~q:0.5
  and p90 = Quantile.create ~q:0.9
  and p99 = Quantile.create ~q:0.99
  and p999 = Quantile.create ~q:0.999 in
  let (), wall =
    timed (fun () ->
        Array.iteri
          (fun i l ->
            Welford.add all l;
            Quantile.add p50 l;
            Quantile.add p90 l;
            Quantile.add p99 l;
            Quantile.add p999 l;
            Welford.add (if i land 1 = 0 then intra else inter) l)
          samples)
  in
  ignore (Quantile.estimate p999);
  wall

let run ~quick =
  let n = if quick then 100_000 else 200_000 in
  let measured = if quick then 2000 else 4000 in
  let reps = if quick then 3 else 5 in
  let samples = stream n in
  (* Interleave and keep each pipeline's best: noise only slows. *)
  let scalar_wall = ref infinity and dist_wall = ref infinity in
  for _ = 1 to reps do
    scalar_wall := Float.min !scalar_wall (replay_scalar samples);
    dist_wall := Float.min !dist_wall (replay_distribution samples)
  done;
  let per_sample w = w /. float_of_int n in
  let extra_per_sample = Float.max 0. (per_sample !dist_wall -. per_sample !scalar_wall) in
  (* A real run records one latency sample per measured message; scale
     the per-sample difference to the timed run's sample count and
     express it as a fraction of that run's wall time.  The streaming
     fast path is the stricter denominator. *)
  let engine streaming =
    let point = sim_point { (sim_protocol measured) with Fatnet_scenario.Scenario.streaming } in
    let wall = ref infinity in
    for _ = 1 to reps do
      let r = Runner.run_scenario point in
      wall := Float.min !wall r.Runner.wall_seconds
    done;
    (!wall, extra_per_sample *. float_of_int measured /. !wall)
  in
  let per_flit_wall, per_flit_frac = engine false in
  let streaming_wall, streaming_frac = engine true in
  (* Quantile inversion on the shifted-exponential mixture at a few
     load fractions. *)
  let ws = Eval.workspace ~system:Fatnet_model.Presets.org_544 ~message:message32 () in
  let sat = Eval.saturation_rate ws in
  let fracs = [| 0.1; 0.3; 0.5; 0.7 |] in
  let quantile_evals = 2000 in
  ignore (Eval.quantile ws ~lambda_g:(0.5 *. sat) ~q:0.99);
  let (), quantile_wall =
    timed (fun () ->
        for i = 0 to quantile_evals - 1 do
          ignore (Eval.quantile ws ~lambda_g:(fracs.(i mod Array.length fracs) *. sat) ~q:0.99)
        done)
  in
  record ~suite:"tail"
    ~title:
      (Printf.sprintf
         "distribution-carrying pipeline overhead, %d replayed samples, org_544 cut-through %d \
          measured messages, best of %d"
         n measured reps)
    ~note:
      "scalar is the moments-only bookkeeping (two Welford adds per message); distribution \
       adds the p50/p90/p99/p999 P2 ladder; the per-sample difference is scaled to the timed \
       run's sample count and expressed as a fraction of that run's wall time per engine"
    ~gates:[ gate_max "worst_overhead_fraction" 0.05 ]
    [
      row "scalar.ns_per_sample" "ns" (1e9 *. per_sample !scalar_wall);
      row "distribution.ns_per_sample" "ns" (1e9 *. per_sample !dist_wall);
      row "extra_ns_per_sample" "ns" (1e9 *. extra_per_sample);
      row "per_flit.sim_wall_seconds" "s" per_flit_wall;
      row "per_flit.overhead_fraction" "fraction" per_flit_frac;
      row "streaming.sim_wall_seconds" "s" streaming_wall;
      row "streaming.overhead_fraction" "fraction" streaming_frac;
      row ~better:Lower "worst_overhead_fraction" "fraction" (Float.max per_flit_frac streaming_frac);
      row ~better:Higher "model_tail.p99_quantile_evals_per_sec" "1/s"
        (float_of_int quantile_evals /. quantile_wall);
    ]

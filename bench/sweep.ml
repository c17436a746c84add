(* Sweep orchestration (BENCH_sweep.json): the same Fig. 5 sweep run
   (a) on the domain pool with the fixed replication budget a
   non-adaptive design must provision to guarantee the precision
   target everywhere, (b) cold through the engine (claim-counter
   scheduling on the same pool, CI-adaptive replications, empty
   cache) and (c) warm against the same cache, recording wall times,
   per-domain occupancy and cache hits.  The gate: warm results equal
   the cold ones bit for bit at every point. *)

module Figures = Fatnet_experiments.Figures
module Sweep_engine = Fatnet_experiments.Sweep_engine
module Pool = Fatnet_model.Eval.Pool
module Runner = Fatnet_sim.Runner
module Scenario = Fatnet_scenario.Scenario
open Harness

(* One replication's protocol, and the stopping rule.  The fixed
   baseline cannot know per-point variance up front, so to guarantee
   the precision target at every point it must provision the cap:
   max_reps x the replication quota, at every point.  The adaptive
   engine spends that budget only where the CI actually needs it (and
   futility-stops points whose CI cannot converge at all). *)
let replication =
  { Scenario.target_rel = 0.05; confidence = 0.95; min_reps = 2; max_reps = 8; target = Scenario.Mean }

(* Exercise the scheduler even on a single-core host: coarse tasks
   timeshare two domains at negligible cost, and per-domain occupancy
   becomes observable. *)
let domains = max 2 recommended_domains

let points spec ~steps ~protocol =
  spec.Figures.curves
  |> List.filter (fun c -> c.Figures.simulate)
  |> List.concat_map (fun c ->
         List.init steps (fun i ->
             let lambda_g = spec.Figures.lambda_max *. float_of_int (i + 1) /. float_of_int steps in
             {
               (Scenario.at c.Figures.scenario lambda_g) with
               Scenario.protocol;
               replication = Some replication;
             }))

let fresh_cache_dir () =
  let marker = Filename.temp_file "fatnet-sweep-cache" "" in
  Sys.remove marker;
  Sys.mkdir marker 0o755;
  marker

let run ~quick =
  let steps = if quick then 2 else 4 and rep_measured = if quick then 200 else 500 in
  let spec = Figures.fig5 in
  let points = points spec ~steps ~protocol:(sim_protocol rep_measured) in
  let n_points = List.length points in
  (* (a) the fixed budget on the same pool, no engine, no cache *)
  let baseline_protocol = sim_protocol (rep_measured * replication.Scenario.max_reps) in
  let (), baseline_wall =
    timed (fun () ->
        Pool.with_pool ~domains (fun pool ->
            ignore
              (Pool.map pool (Array.of_list points) ~f:(fun _ (p : Scenario.t) ->
                   Runner.run_scenario { p with Scenario.protocol = baseline_protocol }))))
  in
  (* (b) cold engine: empty cache, claim counter, adaptive reps;
     (c) warm engine: the identical sweep against the populated cache *)
  let cache_dir = fresh_cache_dir () in
  let engine =
    { Sweep_engine.default_config with domains = Some domains; cache = Sweep_engine.Cache_dir cache_dir }
  in
  let cold_outcome = Sweep_engine.run ~config:engine points in
  let warm_outcome = Sweep_engine.run ~config:engine points in
  Fatnet_experiments.Point_cache.clear ~dir:cache_dir;
  (try Sys.rmdir cache_dir with Sys_error _ -> ());
  let cold_results = Sweep_engine.results_exn cold_outcome in
  let warm_results = Sweep_engine.results_exn warm_outcome in
  let mismatched =
    Array.fold_left ( + ) 0
      (Array.map2
         (fun (a : Runner.point) (b : Runner.point) -> if a.summary = b.summary then 0 else 1)
         cold_results warm_results)
  in
  let cold = cold_outcome.Sweep_engine.stats and warm = warm_outcome.Sweep_engine.stats in
  let stats label (s : Sweep_engine.stats) =
    let p = label ^ "." in
    [
      row (p ^ "wall_seconds") "s" s.Sweep_engine.wall_seconds;
      row (p ^ "points") "points" (float_of_int s.Sweep_engine.points);
      row (p ^ "executed") "points" (float_of_int s.Sweep_engine.executed);
      row (p ^ "cache_hits") "points" (float_of_int s.Sweep_engine.cache_hits);
      row (p ^ "domains") "domains" (float_of_int s.Sweep_engine.domains_used);
    ]
    @ List.mapi
        (fun i o -> row (Printf.sprintf "%soccupancy.%d" p i) "fraction" o)
        (Array.to_list s.Sweep_engine.occupancy)
  in
  let reps = Array.map (fun (r : Runner.point) -> float_of_int r.replications) cold_results in
  record ~suite:"sweep"
    ~title:
      (Printf.sprintf
         "%s sweep, %d points, precision target %.2f rel at %.2f conf, rep quota %d, cap %d"
         spec.Figures.id n_points replication.Scenario.target_rel replication.Scenario.confidence
         rep_measured replication.Scenario.max_reps)
    ~note:
      "baseline runs every point on the same domain pool with the fixed budget (cap x rep \
       quota per point) a non-adaptive design must provision to guarantee the precision \
       target at every point; the engine spends that budget adaptively and caches points \
       on disk"
    ~gates:[ gate_max "warm_mismatched_points" 0. ]
    ([
       row "baseline_fixed_budget.wall_seconds" "s" baseline_wall;
       row "baseline_fixed_budget.measured_per_point" "messages"
         (float_of_int baseline_protocol.Scenario.measured);
       row "baseline_fixed_budget.points" "points" (float_of_int n_points);
       row "baseline_fixed_budget.domains" "domains" (float_of_int domains);
     ]
    @ stats "cold_engine" cold @ stats "warm_engine" warm
    @ [ row "replications.total" "replications" (Array.fold_left ( +. ) 0. reps) ]
    @ List.mapi
        (fun i r -> row (Printf.sprintf "replications.per_point.%d" i) "replications" r)
        (Array.to_list reps)
    @ [
        row ~better:Lower "warm_mismatched_points" "points" (float_of_int mismatched);
        row ~better:(at_domains domains Higher) "cold_speedup_vs_baseline" "x"
          (baseline_wall /. cold.Sweep_engine.wall_seconds);
        row ~better:(at_domains domains Higher) "warm_speedup_vs_cold" "x"
          (cold.Sweep_engine.wall_seconds /. warm.Sweep_engine.wall_seconds);
      ])

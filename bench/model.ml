(* The analytical-model kernel (BENCH_model.json): the cluster and
   pair class counts it deduplicates to, per-evaluation throughput and
   allocation of [Eval.mean_into] and of a tail fit + p99 inversion
   ([Eval.quantile]), the allocation gated at a max, and the
   saturation search cold (a fresh workspace and bracket per system)
   against warm-started bracketing over a family of perturbed
   systems.  The kernel's answers are first asserted against the
   golden wire answers in test/golden (run from the repository root),
   and warm saturation against cold; a mismatch exits 1 before any
   record is written. *)

module Eval = Fatnet_model.Eval
module Presets = Fatnet_model.Presets
module Solver = Fatnet_numerics.Solver
module Metrics = Fatnet_obs.Metrics
module Json = Fatnet_obs.Json
module Sproto = Fatnet_serve.Protocol
open Harness

(* Each organization's golden wire answers (test/golden, recorded
   before the kernel deduplicated cluster classes). *)
let golden = [ ("org_544", "fig5"); ("org_1120", "fig3") ]

(* Replay the single-request lines of a golden stream through the
   kernel and compare each latency or quantile value with the
   recorded answer, bit for bit (finite answers are rendered as the
   shortest round-tripping decimal).  Returns the number of values
   checked. *)
let golden_check org ws =
  let fig = List.assoc org golden in
  let lines path =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let requests = lines (Printf.sprintf "test/golden/%s.requests" fig) in
  let answers = lines (Printf.sprintf "test/golden/%s.answers" fig) in
  List.fold_left2
    (fun checked req ans ->
      let got =
        match Sproto.frame_of_line req with
        | Ok (Sproto.Single (Sproto.Req { query = Sproto.Latency { lambda }; _ })) ->
            Some (Eval.mean_into ws ~lambda_g:lambda)
        | Ok (Sproto.Single (Sproto.Req { query = Sproto.Quantile { lambda; q }; _ })) ->
            Some (Eval.quantile ws ~lambda_g:lambda ~q)
        | _ -> None
      in
      match got with
      | None -> checked
      | Some v ->
          let same =
            match Json.member "value" (Json.parse ans) with
            | Some (Json.Num f) -> Int64.bits_of_float f = Int64.bits_of_float v
            | Some (Json.Str "inf") -> v = infinity
            | Some (Json.Str "nan") -> Float.is_nan v
            | _ -> false
          in
          if not same then
            die "model bench: GOLDEN MISMATCH on %s (%s): kernel %h, golden %s" org req v ans;
          checked + 1)
    0 requests answers

let count reg name =
  match Metrics.Snapshot.find (Metrics.snapshot reg) name with
  | Some (Metrics.Snapshot.Counter n) -> n
  | _ -> 0

(* Total solver work recorded in a registry: bracket probes plus
   bisection/boundary iterations. *)
let solver_iterations reg =
  count reg "solver_bracket_retries" + count reg "solver_bisect_iterations"
  + count reg "solver_boundary_iterations"

let org_rows ~evals ~searches (org, system) =
  let ws = Eval.workspace ~system ~message:message32 () in
  let sat = Eval.saturation_rate ws in
  let fracs = [| 0.1; 0.3; 0.5; 0.7; 0.9 |] in
  let lambda i = fracs.(i mod Array.length fracs) *. sat in
  (* The answers first: throughput is only worth reporting if the
     kernel still computes the recorded floats. *)
  let golden_checked = golden_check org ws in
  let terms = Eval.terms ws in
  let run_evals eval =
    for i = 0 to evals - 1 do
      ignore (eval (lambda i))
    done
  in
  (* Bytes per evaluation, counted on the minor heap in an untimed
     pass: every block an evaluation allocates is small, so the count
     is all of it and repeats exactly, unlike [Gc.allocated_bytes],
     whose promoted and major counters move with the timing of
     collections.  It includes the boxed λ the bench passes in and the
     boxed result, 16 bytes each. *)
  let time_evals eval =
    ignore (eval (lambda 0));
    let (), wall = timed (fun () -> run_evals eval) in
    let before = Gc.minor_words () in
    run_evals eval;
    let bytes =
      (Gc.minor_words () -. before) *. float_of_int (Sys.word_size / 8) /. float_of_int evals
    in
    (float_of_int evals /. wall, bytes)
  in
  let ws2, build_seconds = timed (fun () -> Eval.workspace ~system ~message:message32 ()) in
  let ws_eps, ws_bytes = time_evals (fun lambda_g -> Eval.mean_into ws2 ~lambda_g) in
  let p99_eps, p99_bytes = time_evals (fun lambda_g -> Eval.quantile ws2 ~lambda_g ~q:0.99) in
  (* Saturation searches over a family of slightly perturbed systems —
     the topology-search access pattern.  Cold is a fresh workspace
     per system and a bracket from scratch.  Warm threads one bracket
     across the family.

     The family visits each perturbation twice in a row, the way a
     design search revisits neighbouring candidates.  That is what
     makes the bracket-REUSE branch observable: the stored bracket is
     tol-tight (~1e-9 wide) while each 1e-4 bandwidth step moves the
     root by ~1e-7, so on a strictly monotone family the root always
     escapes the previous bracket and every warm solve is a
     directional march ([solver_bracket_retries]), never a reuse —
     the counter reading 0 there is correct behaviour, not a bug.  A
     repeat of the same system leaves the root inside the bracket and
     [solver_bracket_reuses] ticks. *)
  let perturbed =
    Array.init searches (fun i ->
        Presets.with_icn2_bandwidth_scaled system ~factor:(1. +. (1e-4 *. float_of_int (i / 2))))
  in
  let cold_reg = Metrics.create () in
  let cold_rates, cold_wall =
    timed (fun () ->
        Metrics.with_ambient cold_reg (fun () ->
            Array.map
              (fun s -> Eval.saturation_rate (Eval.workspace ~system:s ~message:message32 ()))
              perturbed))
  in
  let warm_reg = Metrics.create () in
  let warm_rates, warm_wall =
    timed (fun () ->
        Metrics.with_ambient warm_reg (fun () ->
            let state = Solver.bracket_state () in
            Array.map
              (fun s -> Eval.saturation_rate ~state (Eval.workspace ~system:s ~message:message32 ()))
              perturbed))
  in
  Array.iteri
    (fun i cold ->
      if not (Fatnet_numerics.Float_utils.approx_equal ~rel:1e-6 cold warm_rates.(i)) then
        die "model bench: saturation mismatch on %s perturbation %d: cold %.9g, warm %.9g" org i
          cold warm_rates.(i))
    cold_rates;
  let n = float_of_int searches in
  let p = org ^ "." in
  [
    row (p ^ "cluster_classes") "classes" (float_of_int (Array.length terms.Eval.u));
    row (p ^ "pair_classes") "classes" (float_of_int (Array.length terms.Eval.pair_tail));
    row ~better:Higher (p ^ "workspace.evals_per_sec") "1/s" ws_eps;
    row ~better:Lower (p ^ "workspace.allocated_bytes_per_eval") "B" ws_bytes;
    row (p ^ "workspace.build_seconds") "s" build_seconds;
    row ~better:Higher (p ^ "tail.fit_p99_evals_per_sec") "1/s" p99_eps;
    row ~better:Lower (p ^ "tail.allocated_bytes_per_eval") "B" p99_bytes;
    row (p ^ "golden_values_checked") "values" (float_of_int golden_checked);
    row (p ^ "cold_saturation.searches") "searches" n;
    row (p ^ "cold_saturation.searches_per_sec") "1/s" (n /. cold_wall);
    row (p ^ "cold_saturation.solver_iterations_per_search") "iterations"
      (float_of_int (solver_iterations cold_reg) /. n);
    row (p ^ "warm_saturation.searches") "searches" n;
    row (p ^ "warm_saturation.searches_per_sec") "1/s" (n /. warm_wall);
    row (p ^ "warm_saturation.solver_iterations_per_search") "iterations"
      (float_of_int (solver_iterations warm_reg) /. n);
    row (p ^ "warm_saturation.warm_starts") "searches"
      (float_of_int (count warm_reg "solver_warm_starts"));
    row (p ^ "warm_saturation.bracket_reuses") "searches"
      (float_of_int (count warm_reg "solver_bracket_reuses"));
    row ~better:Higher (p ^ "saturation_speedup") "x" (cold_wall /. warm_wall);
  ]

let run ~quick =
  let evals = if quick then 50 else 200 and searches = if quick then 6 else 12 in
  record ~suite:"model"
    ~title:
      (Printf.sprintf
         "analytical model engine, m_flits=32 d_m_bytes=256, %d evals, %d perturbed searches"
         evals searches)
    ~note:
      "workspace is Eval.mean_into over a prebuilt workspace that evaluates each cluster \
       class and pair class once; tail is Eval.quantile at q=0.99 (kernel + tail fit + \
       inversion); allocated bytes per eval are counted on the minor heap (Gc.minor_words) \
       and include the boxed lambda passed in and the boxed result, 16 B each; cold \
       saturation is Eval.saturation_rate over a fresh workspace and bracket per system, warm \
       threads one bracket across the perturbed family; the kernel is asserted bit-identical \
       to the golden wire answers in test/golden in process"
    ~gates:
      (List.concat_map
         (fun (org, _) ->
           [
             gate_max (org ^ ".workspace.allocated_bytes_per_eval") 40.;
             gate_max (org ^ ".tail.allocated_bytes_per_eval") 824.;
           ])
         orgs)
    (List.concat_map (org_rows ~evals ~searches) orgs)

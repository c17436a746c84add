module Metrics = Fatnet_obs.Metrics

type point = { lambda_g : float; latency : float }

type t = { points : point list }

(* Both sweep entry points evaluate through an [Eval.workspace]: the
   λ-invariant precomputation is hoisted out of the grid loop, and
   each point costs one allocation-free [Eval.mean_into]. *)

let sweep_counters () =
  let reg = Metrics.ambient () in
  ( Metrics.counter reg "model_sweep_points",
    Metrics.counter reg "model_sweep_points_saturated"
      ~help:"Model sweep points whose predicted latency diverged" )

let linear ?variants ~system ~message ~lo ~hi ~steps () =
  if steps < 2 then invalid_arg "Sweep.linear: steps >= 2";
  if lo < 0. || not (lo < hi) then invalid_arg "Sweep.linear: requires 0 <= lo < hi";
  let ws = Eval.workspace ?variants ~system ~message () in
  let points_total, points_saturated = sweep_counters () in
  let point i =
    let frac = float_of_int i /. float_of_int (steps - 1) in
    let lambda_g = lo +. (frac *. (hi -. lo)) in
    let latency = Eval.mean_into ws ~lambda_g in
    Metrics.incr points_total;
    if not (Fatnet_numerics.Float_utils.is_finite latency) then
      Metrics.incr points_saturated;
    { lambda_g; latency }
  in
  { points = List.init steps point }

let batch ws ~lambdas =
  let points_total, points_saturated = sweep_counters () in
  let arr = Array.of_list lambdas in
  let n = Array.length arr in
  let idx = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare arr.(a) arr.(b)) idx;
  let out = Array.make n 0. in
  (* Saturation is monotone in λ (every Eq. (15)-(37) utilisation is
     linear in λ), so one ascending pass propagates the frontier:
     once a rate diverges, every rate at or above it reports
     [infinity] without being evaluated. *)
  let frontier = ref infinity in
  Array.iter
    (fun k ->
      let lambda_g = arr.(k) in
      let latency =
        if lambda_g >= !frontier then infinity
        else begin
          let l = Eval.mean_into ws ~lambda_g in
          if not (Fatnet_numerics.Float_utils.is_finite l) then frontier := lambda_g;
          l
        end
      in
      Metrics.incr points_total;
      if not (Fatnet_numerics.Float_utils.is_finite latency) then
        Metrics.incr points_saturated;
      out.(k) <- latency)
    idx;
  { points = List.init n (fun k -> { lambda_g = arr.(k); latency = out.(k) }) }

let up_to_saturation ?variants ?(margin = 0.95) ~system ~message ~steps () =
  if not (Float.is_finite margin && margin > 0. && margin < 1.) then
    invalid_arg "Sweep.up_to_saturation: margin must be finite and in (0,1)";
  if steps < 2 then invalid_arg "Sweep.linear: steps >= 2";
  let ws = Eval.workspace ?variants ~system ~message () in
  let sat = Eval.saturation_rate ws in
  let lo = 0. and hi = margin *. sat in
  if not (lo < hi) then invalid_arg "Sweep.linear: requires 0 <= lo < hi";
  let lambdas =
    List.init steps (fun i ->
        let frac = float_of_int i /. float_of_int (steps - 1) in
        lo +. (frac *. (hi -. lo)))
  in
  batch ws ~lambdas

let up_to_saturation_pool pool ?variants ?(margin = 0.95) ~system ~message ~steps () =
  if not (Float.is_finite margin && margin > 0. && margin < 1.) then
    invalid_arg "Sweep.up_to_saturation: margin must be finite and in (0,1)";
  if steps < 2 then invalid_arg "Sweep.linear: steps >= 2";
  let ws = Eval.workspace ?variants ~system ~message () in
  let sat = Eval.saturation_rate ws in
  let lo = 0. and hi = margin *. sat in
  if not (lo < hi) then invalid_arg "Sweep.linear: requires 0 <= lo < hi";
  let lambdas =
    Array.init steps (fun i ->
        let frac = float_of_int i /. float_of_int (steps - 1) in
        lo +. (frac *. (hi -. lo)))
  in
  (* Every grid point sits below [margin]·sat, so the sequential
     path's saturation-frontier shortcut never fires — the pooled
     batch evaluates the same λ values to the same bits. *)
  let out = Eval.Pool.means pool ?variants ~system ~message lambdas in
  let points_total, points_saturated = sweep_counters () in
  Metrics.add points_total steps;
  Array.iter
    (fun l ->
      if not (Fatnet_numerics.Float_utils.is_finite l) then Metrics.incr points_saturated)
    out;
  { points = List.init steps (fun k -> { lambda_g = lambdas.(k); latency = out.(k) }) }

let finite_points t =
  List.filter_map
    (fun p ->
      if Fatnet_numerics.Float_utils.is_finite p.latency then Some (p.lambda_g, p.latency)
      else None)
    t.points

let pp ppf t =
  List.iter
    (fun p -> Format.fprintf ppf "%.6g\t%.6g@." p.lambda_g p.latency)
    t.points

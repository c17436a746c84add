type t = {
  batch_size : int;
  mutable current_sum : float;
  mutable current_count : int;
  batch_stats : Welford.t;
}

let create ~batch_size =
  if batch_size < 1 then invalid_arg "Batch_means.create: batch_size >= 1";
  { batch_size; current_sum = 0.; current_count = 0; batch_stats = Welford.create () }

let add t x =
  t.current_sum <- t.current_sum +. x;
  t.current_count <- t.current_count + 1;
  if t.current_count = t.batch_size then begin
    Welford.add t.batch_stats (t.current_sum /. float_of_int t.batch_size);
    t.current_sum <- 0.;
    t.current_count <- 0
  end

let completed_batches t = Welford.count t.batch_stats

let mean t = if completed_batches t = 0 then nan else Welford.mean t.batch_stats

(* Two-sided Student-t critical values at 95% and 99% for small df,
   falling back to the normal quantile for df > 30. *)
let t_critical ~confidence ~df =
  let table_95 =
    [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
       2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
       2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042 |]
  in
  let table_99 =
    [| 63.657; 9.925; 5.841; 4.604; 4.032; 3.707; 3.499; 3.355; 3.250; 3.169;
       3.106; 3.055; 3.012; 2.977; 2.947; 2.921; 2.898; 2.878; 2.861; 2.845;
       2.831; 2.819; 2.807; 2.797; 2.787; 2.779; 2.771; 2.763; 2.756; 2.750 |]
  in
  let pick table limit = if df <= 30 then table.(df - 1) else limit in
  if confidence >= 0.99 then pick table_99 2.576
  else if confidence >= 0.95 then pick table_95 1.96
  else (* generic normal approximation for lower confidence levels *)
    let alpha = 1. -. confidence in
    (* crude inverse-normal via Beasley-Springer-like rational fit at
       the few levels we use; 90% is the only other common case *)
    if alpha >= 0.1 then 1.645 else 1.96

let half_width t ~confidence =
  let k = completed_batches t in
  if k < 2 then nan
  else begin
    let s = Welford.stddev t.batch_stats in
    let crit = t_critical ~confidence ~df:(k - 1) in
    crit *. s /. sqrt (float_of_int k)
  end

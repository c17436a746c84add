(* Order statistics for the benchmark's timings.

   A timing is reported as its median plus the highest percentile
   that still has at least ten samples beyond it, together with the
   sample count.  Percentiles use the nearest-rank definition: the
   p-th percentile of n sorted samples is the sample at 1-based rank
   ceil(p·n), so [n - ceil(p·n)] samples lie beyond it. *)

let min_beyond = 10

(* The ladder of percentiles a tail can be reported at, highest first. *)
let levels = [ 0.999; 0.99; 0.9; 0.5 ]

(* ceil(p·n) computed on integers: p is one of a few decimal levels,
   and float products such as 0.9 *. 10. = 9.000000000000002 would
   otherwise round up a whole rank. *)
let rank ~n p =
  let per_mille = Float.to_int (Float.round (p *. 1000.)) in
  max 1 ((per_mille * n + 999) / 1000)

let beyond ~n p = n - rank ~n p

(* The highest ladder level with at least [min_beyond] samples beyond
   it; [None] when even the median has fewer (n < 20). *)
let tail_level n = List.find_opt (fun p -> beyond ~n p >= min_beyond) levels

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let at_sorted a p =
  let n = Array.length a in
  if n = 0 then Float.nan else a.(rank ~n p - 1)

let percentile samples p = at_sorted (sorted samples) p

let median samples = percentile samples 0.5

type summary = {
  n : int;
  p50 : float;
  tail_q : float;  (** the level [tail] was taken at; nan when none qualifies *)
  tail : float;
}

let summarize samples =
  let a = sorted samples in
  let n = Array.length a in
  match tail_level n with
  | Some q -> { n; p50 = at_sorted a 0.5; tail_q = q; tail = at_sorted a q }
  | None -> { n; p50 = at_sorted a 0.5; tail_q = Float.nan; tail = Float.nan }

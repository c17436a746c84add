(* A mixture of shifted exponentials stored by class (see tail.mli).
   One class's wait has a mass of 1 - sigma at zero plus
   sigma x Exponential(sigma / wait_mean), so E[W] = wait_mean. *)

type t = {
  mean : float;
  weight : float array;
  cls : int array;
  floor : float array;
  wait_mean : float array;
  sigma : float array;
}

(* P(latency <= x): each class's CDF at [x] into the scratch [k] (one
   [exp] per class), then the weighted sum in component order, so the
   additions see the operands a per-component fold would. *)
let cdf_into k t x =
  for c = 0 to Array.length t.floor - 1 do
    k.(c) <-
      (if x < t.floor.(c) then 0.
       else if t.sigma.(c) <= 0. || t.wait_mean.(c) <= 0. then 1.
       else 1. -. (t.sigma.(c) *. exp (-.t.sigma.(c) *. (x -. t.floor.(c)) /. t.wait_mean.(c))))
  done;
  let acc = ref 0. in
  for i = 0 to Array.length t.weight - 1 do
    acc := !acc +. (t.weight.(i) *. k.(t.cls.(i)))
  done;
  !acc

let scratch t = Array.make (Array.length t.floor) 0.

let cdf t x = cdf_into (scratch t) t x

let complementary_cdf t x = 1. -. cdf t x

let is_finite_t t =
  Fatnet_numerics.Float_utils.is_finite t.mean
  && Array.for_all Float.is_finite t.floor
  && Array.for_all Float.is_finite t.wait_mean
  && Array.for_all Float.is_finite t.sigma

let quantile t q =
  if not (q > 0. && q < 1.) then invalid_arg "Tail.quantile: q must be in (0,1)";
  if Array.length t.weight = 0 || not (is_finite_t t) then infinity
  else begin
    (* Smallest x with F(x) >= q.  F is monotone, 0 below the least
       floor; double an upper bracket out from the largest floor,
       then bisect to relative precision well below anything the
       figures or tables render. *)
    let k = scratch t in
    let cdf = cdf_into k t in
    let lo0 = Array.fold_left Float.min infinity t.floor in
    let hi0 = Array.fold_left Float.max 0. t.floor in
    let rec widen hi n =
      if cdf hi >= q || n > 128 then hi else widen (hi *. 2.) (n + 1)
    in
    let hi = widen (Float.max (2. *. hi0) 1e-12) 0 in
    if cdf hi < q then infinity
    else begin
      let lo = ref lo0 and hi = ref hi in
      for _ = 1 to 100 do
        let mid = 0.5 *. (!lo +. !hi) in
        if cdf mid >= q then hi := mid else lo := mid
      done;
      !hi
    end
  end

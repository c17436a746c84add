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

(* Each class's CDF at [x] into the scratch [k]: one [exp] per class. *)
let class_cdfs_into k t x =
  for c = 0 to Array.length t.floor - 1 do
    k.(c) <-
      (if x < t.floor.(c) then 0.
       else if t.sigma.(c) <= 0. || t.wait_mean.(c) <= 0. then 1.
       else 1. -. (t.sigma.(c) *. exp (-.t.sigma.(c) *. (x -. t.floor.(c)) /. t.wait_mean.(c))))
  done

(* P(latency <= x) from the class CDFs in [k]: the weighted sum in
   component order, so the additions see the operands a
   per-component fold would. *)
let component_sum k t =
  let acc = ref 0. in
  for i = 0 to Array.length t.weight - 1 do
    acc := !acc +. (t.weight.(i) *. k.(t.cls.(i)))
  done;
  !acc

let cdf t x =
  let k = Array.make (Array.length t.floor) 0. in
  class_cdfs_into k t x;
  component_sum k t

let complementary_cdf t x = 1. -. cdf t x

let is_finite_t t =
  Fatnet_numerics.Float_utils.is_finite t.mean
  && Array.for_all Float.is_finite t.floor
  && Array.for_all Float.is_finite t.wait_mean
  && Array.for_all Float.is_finite t.sigma

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let quantile t q =
  if not (q > 0. && q < 1.) then invalid_arg "Tail.quantile: q must be in (0,1)";
  if Array.length t.weight = 0 || not (is_finite_t t) then infinity
  else begin
    (* Smallest x with F(x) >= q.  F is monotone, 0 below the least
       floor; double an upper bracket out from the largest floor,
       then bisect to relative precision well below anything the
       figures or tables render. *)
    let n = Array.length t.weight and m = Array.length t.floor in
    let k = Array.make m 0. in
    (* Per class, in component order: the summed weight, and the
       summed |weight| that bounds the sums' rounding error. *)
    let w = Array.make m 0. and a = Array.make m 0. in
    for i = 0 to n - 1 do
      let c = t.cls.(i) in
      w.(c) <- w.(c) +. t.weight.(i);
      a.(c) <- a.(c) +. Float.abs t.weight.(i)
    done;
    let coef = 4. *. float_of_int (n + m) *. epsilon_float in
    (* Whether the component-order sum F(x) (n terms) is >= q: the
       decision a per-component fold makes.  The class-aggregated sum
       S(x) (m terms) and F(x) round the same exact sum, with
       A = sum |w|·|k| and u = epsilon_float / 2: F is within
       gamma_n·A of it and S within (gamma_n + gamma_m·(1 + gamma_n))·A
       (Higham, §3.1), so |S - F| < 3.1·(n + m)·u·A.  [band] is about
       8·(n + m)·u·A, plus [min_float] for underflowed products.
       Outside the band S decides; inside it F is summed.  A NaN or
       infinite S or band fails both tests and falls through to F.
       DESIGN.md ("The model kernel") has the argument in full. *)
    let reaches x =
      class_cdfs_into k t x;
      let s = ref 0. and mag = ref 0. in
      for c = 0 to m - 1 do
        s := !s +. (w.(c) *. k.(c));
        mag := !mag +. (a.(c) *. Float.abs k.(c))
      done;
      let d = !s -. q and band = (coef *. !mag) +. Float.min_float in
      if d > band then true else if d < -.band then false else component_sum k t >= q
    in
    let lo0 = Array.fold_left Float.min infinity t.floor in
    let hi0 = Array.fold_left Float.max 0. t.floor in
    (* At most [steps] more halvings, stopping at the first one that
       leaves (lo, hi) unchanged: the next midpoint and decision would
       be the same, so every later step would change nothing. *)
    let rec bisect lo hi steps =
      if steps = 0 then hi
      else
        let mid = 0.5 *. (lo +. hi) in
        if reaches mid then if same_bits mid hi then hi else bisect lo mid (steps - 1)
        else if same_bits mid lo then hi
        else bisect mid hi (steps - 1)
    in
    let rec widen hi doublings =
      if reaches hi then bisect lo0 hi 100
      else if doublings > 128 then infinity
      else widen (hi *. 2.) (doublings + 1)
    in
    widen (Float.max (2. *. hi0) 1e-12) 0
  end

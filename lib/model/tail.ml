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

(* The class count [m], after checking the shape that the unchecked
   accesses below rely on: [wait_mean] and [sigma] have [m] entries
   like [floor], and [cls] holds one class in [0, m) per weight. *)
let classes t =
  let m = Array.length t.floor in
  if
    Array.length t.wait_mean <> m
    || Array.length t.sigma <> m
    || Array.length t.cls <> Array.length t.weight
    || Array.exists (fun c -> c < 0 || c >= m) t.cls
  then invalid_arg "Tail: wait_mean, sigma and cls do not match floor and weight";
  m

(* Each class's CDF at [x] into the scratch [k] of [classes t]
   entries: one [exp] per class. *)
let[@inline] class_cdfs_into k t x =
  for c = 0 to Array.length t.floor - 1 do
    (* c < m, the length of floor, wait_mean, sigma and k *)
    let floor = Array.unsafe_get t.floor c
    and sigma = Array.unsafe_get t.sigma c
    and wait_mean = Array.unsafe_get t.wait_mean c in
    Array.unsafe_set k c
      (if x < floor then 0.
       else if sigma <= 0. || wait_mean <= 0. then 1.
       else 1. -. (sigma *. exp (-.sigma *. (x -. floor) /. wait_mean)))
  done

(* P(latency <= x) from the class CDFs in [k]: the weighted sum in
   component order, so the additions see the operands a
   per-component fold would. *)
let[@inline] component_sum k t =
  let acc = ref 0. in
  for i = 0 to Array.length t.weight - 1 do
    (* i < the length of weight and cls, and cls.(i) < the length of k *)
    acc :=
      !acc +. (Array.unsafe_get t.weight i *. Array.unsafe_get k (Array.unsafe_get t.cls i))
  done;
  !acc

let cdf t x =
  let k = Array.make (classes t) 0. in
  class_cdfs_into k t x;
  component_sum k t

let complementary_cdf t x = 1. -. cdf t x

let quantile t q =
  if not (q > 0. && q < 1.) then invalid_arg "Tail.quantile: q must be in (0,1)";
  let m = classes t in
  (* The least and the largest floor, and whether every class is finite. *)
  let lo = ref infinity and largest = ref 0. and finite = ref (Float.is_finite t.mean) in
  for c = 0 to m - 1 do
    let floor = t.floor.(c) in
    lo := Float.min !lo floor;
    largest := Float.max !largest floor;
    finite :=
      !finite && Float.is_finite floor && Float.is_finite t.wait_mean.(c)
      && Float.is_finite t.sigma.(c)
  done;
  if Array.length t.weight = 0 || not !finite then infinity
  else begin
    (* Smallest x with F(x) >= q.  F is monotone, 0 below the least
       floor; double an upper bracket out from the largest floor,
       then bisect to relative precision well below anything the
       figures or tables render. *)
    let n = Array.length t.weight in
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
    (* One loop probes x = hi while widening the bracket, doubling it
       out from the largest floor, then x = (lo + hi) / 2 while
       halving (lo, hi) from the least floor: at most [steps] = 100
       halvings, stopping at the first one that leaves (lo, hi)
       unchanged, since the next midpoint and decision would be the
       same and so would every later step.  Past 128 doublings the
       answer is infinity. *)
    let hi = ref (Float.max (2. *. !largest) 1e-12) in
    let widening = ref true and doublings = ref 0 and steps = ref 100 in
    while !steps > 0 do
      let x = if !widening then !hi else 0.5 *. (!lo +. !hi) in
      (* Whether the component-order sum F(x) (n terms) is >= q: the
         decision a per-component fold makes.  The class-aggregated
         sum S(x) (m terms) and F(x) round the same exact sum, with
         A = sum |w|·|k| and u = epsilon_float / 2: F is within
         gamma_n·A of it and S within (gamma_n + gamma_m·(1 + gamma_n))·A
         (Higham, §3.1), so |S - F| < 3.1·(n + m)·u·A.  [band] is about
         8·(n + m)·u·A, plus [min_float] for underflowed products.
         Outside the band S decides; inside it F is summed.  A NaN or
         infinite S or band fails both tests and falls through to F.
         DESIGN.md ("The model kernel") has the argument in full. *)
      class_cdfs_into k t x;
      let s = ref 0. and mag = ref 0. in
      for c = 0 to m - 1 do
        (* c < m, the length of w, a and k *)
        let kc = Array.unsafe_get k c in
        s := !s +. (Array.unsafe_get w c *. kc);
        mag := !mag +. (Array.unsafe_get a c *. Float.abs kc)
      done;
      let d = !s -. q and band = (coef *. !mag) +. Float.min_float in
      let reached =
        if d > band then true else if d < -.band then false else component_sum k t >= q
      in
      if !widening then begin
        if reached then widening := false
        else if !doublings > 128 then begin
          hi := infinity;
          steps := 0
        end
        else begin
          hi := !hi *. 2.;
          incr doublings
        end
      end
      else if Int64.bits_of_float x = Int64.bits_of_float (if reached then !hi else !lo) then
        steps := 0
      else begin
        if reached then hi := x else lo := x;
        decr steps
      end
    done;
    !hi
  end

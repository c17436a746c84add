type t = { gen : Xoshiro.t }

let default_seed = 0x5EEDCAFEF00DL

let create ?(seed = default_seed) () = { gen = Xoshiro.create seed }

let split t =
  let child = Xoshiro.copy t.gen in
  Xoshiro.jump t.gen;
  { gen = child }

let float t = Xoshiro.float t.gen

let uniform t ~lo ~hi =
  if not (lo < hi) then invalid_arg "Rng.uniform: requires lo < hi";
  lo +. ((hi -. lo) *. float t)

let int t n = Xoshiro.int t.gen n

let bool t = Int64.logand (Xoshiro.next t.gen) 1L = 1L

let bernoulli t ~p =
  let p = Float.max 0. (Float.min 1. p) in
  float t < p

let exponential t ~rate =
  if not (rate > 0.) then invalid_arg "Rng.exponential: rate must be positive";
  (* 1 - u is in (0,1], so log never sees zero. *)
  -.Float.log (1. -. float t) /. rate

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let int_excluding t n ~excluding =
  if n < 2 then invalid_arg "Rng.int_excluding: need at least two values";
  if excluding < 0 || excluding >= n then
    invalid_arg "Rng.int_excluding: excluded value out of range";
  let v = int t (n - 1) in
  if v >= excluding then v + 1 else v

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

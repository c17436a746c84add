(* Seeded request streams for the oracle workloads.

   Arrival times come from the repo's own arrival model
   ([Fatnet_workload.Arrival]) on a [Fatnet_prng.Rng] stream derived
   from the benchmark's seed, so a seed reproduces every due time and
   every λ bit for bit.  The daemon only ever sees the rendered
   request lines. *)

module Rng = Fatnet_prng.Rng
module Arrival = Fatnet_workload.Arrival

(* Due times, in seconds from the start of a step, of [n] Poisson
   arrivals at [rate] per second. *)
let poisson rng ~rate ~n =
  let law = Arrival.Poisson rate in
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t +. Arrival.next_interval law rng;
      !t)

type op = Latency | Quantile

(* The 7 : 1 latency-to-quantile mix, as a fixed pattern so every
   step carries exactly the same share of tail fits. *)
let op_of_index i = if i mod 8 = 7 then Quantile else Latency

let quantile_q = 0.99

let line ~id op lambda =
  let l = Fatnet_obs.Json.shortest_float lambda in
  match op with
  | Latency -> Printf.sprintf {|{"id": %d, "op": "latency", "lambda": %s}|} id l
  | Quantile ->
      Printf.sprintf {|{"id": %d, "op": "quantile", "lambda": %s, "q": %s}|} id l
        (Fatnet_obs.Json.shortest_float quantile_q)

(* λ values uniform on (0, hi), never repeating one already handed
   out by this generator: every draw is a memo miss for the daemon. *)
type fresh = { rng : Rng.t; hi : float; seen : (int64, unit) Hashtbl.t }

let fresh rng ~hi = { rng; hi; seen = Hashtbl.create 4096 }

let rec draw f =
  let l = Rng.uniform f.rng ~lo:0. ~hi:f.hi in
  let bits = Int64.bits_of_float l in
  if l <= 0. || Hashtbl.mem f.seen bits then draw f
  else (
    Hashtbl.add f.seen bits ();
    l)

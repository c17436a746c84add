(* The multicore model engine (BENCH_parallel.json) under a
   `fatnet design`-shaped workload: a seeded random walk over a design
   lattice — ICN2 bandwidth scale on one axis, message length on the
   other — evaluating a fixed λ grid at every step, the way an
   interactive topology search revisits neighbouring candidates.  The
   walk is revisit-heavy by construction, so the run exercises both
   halves of the engine: the domain pool (every step is an independent
   pure task) and the sharded memo (revisited (candidate, λ) points
   are served from memory without even building a workspace).  Every
   configuration's results are asserted bit-identical to the
   sequential [Eval.mean_into] reference before any throughput number
   is recorded. *)

module Eval = Fatnet_model.Eval
module Pool = Eval.Pool
module Presets = Fatnet_model.Presets
module Scenario = Fatnet_scenario.Scenario
module Memo = Fatnet_numerics.Memo
module Metrics = Fatnet_obs.Metrics
module Rng = Fatnet_prng.Rng
open Harness

let lambdas_per_step = 4

(* Tasks are chunks of consecutive walk steps, not single steps: a
   design-walk step is a handful of memo probes, far too little work
   to amortize a claim, so chunking keeps the claim rate sane and
   gives each domain's 1-slot workspace cache the locality of the walk
   (consecutive steps usually revisit the same candidate).  Results
   land at their step index, so chunking cannot affect the bits. *)
let chunk = 8

type design_point = {
  dp_system : Fatnet_model.Params.system;
  dp_message : Fatnet_model.Params.message;
  dp_key : string;  (* scenario canonical hash, load axis normalised away *)
}

(* The 8x8 candidate lattice.  Cells are built once so that revisits
   share physical identity — that is what lets each pool domain's
   1-slot workspace cache recognise a repeated candidate. *)
let lattice system =
  Array.init 8 (fun a ->
      Array.init 8 (fun b ->
          let dp_system =
            Presets.with_icn2_bandwidth_scaled system ~factor:(1. +. (0.05 *. float_of_int a))
          in
          let dp_message = Presets.message ~m_flits:(16 + (8 * b)) ~d_m_bytes:256. in
          let scn =
            Scenario.make ~system:dp_system ~message:dp_message ~load:(Scenario.Fixed 1e-4) ()
          in
          { dp_system; dp_message; dp_key = Scenario.memo_key scn }))

let walk lattice ~steps ~seed =
  let rng = Rng.create ~seed () in
  let a = ref 0 and b = ref 0 in
  Array.init steps (fun _ ->
      let dir = if Rng.bool rng then 1 else -1 in
      let move r = r := max 0 (min 7 (!r + dir)) in
      if Rng.bool rng then move a else move b;
      lattice.(!a).(!b))

(* The sequential reference: the single-workspace path a 1-domain
   design search runs — one workspace per candidate change
   (consecutive repeats reuse it), no memo. *)
let sequential walk lambdas =
  let cached = ref None in
  timed (fun () ->
      Array.map
        (fun dp ->
          let ws =
            match !cached with
            | Some (prev, ws) when prev == dp -> ws
            | _ ->
                let ws = Eval.workspace ~system:dp.dp_system ~message:dp.dp_message () in
                cached := Some (dp, ws);
                ws
          in
          Array.map (fun lambda_g -> Eval.mean_into ws ~lambda_g) lambdas)
        walk)

(* One engine run: the walk fanned out over a [domains]-wide pool,
   memo-first — a hit skips even the workspace build.  Runs under a
   fresh live registry so the memo and occupancy counters flow end to
   end. *)
let pool_run walk lambdas ~domains ~memo =
  let n = Array.length walk in
  let chunks = Array.init ((n + chunk - 1) / chunk) (fun c -> c * chunk) in
  let out = Array.make n [||] in
  let reg = Metrics.create () in
  let (), wall =
    timed (fun () ->
        Metrics.with_ambient reg (fun () ->
            Pool.with_pool ~domains (fun pool ->
                ignore
                  (Pool.map pool chunks ~f:(fun ctx start ->
                       for i = start to min (start + chunk) n - 1 do
                         let dp = walk.(i) in
                         out.(i) <-
                           Array.map
                             (fun lambda_g ->
                               let eval () =
                                 let ws =
                                   Pool.ctx_workspace ctx ~system:dp.dp_system
                                     ~message:dp.dp_message ()
                                 in
                                 Eval.mean_into ws ~lambda_g
                               in
                               match memo with
                               | None -> eval ()
                               | Some m ->
                                   Memo.find_or_compute m ~key:dp.dp_key
                                     ~bits:(Int64.bits_of_float lambda_g) eval)
                             lambdas
                       done)))))
  in
  (out, wall, reg)

let assert_bits org label reference got =
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if Int64.bits_of_float v <> Int64.bits_of_float got.(i).(j) then
            die "parallel bench: BIT MISMATCH on %s (%s) step %d lambda %d: sequential %h, pool %h"
              org label i j v got.(i).(j))
        row)
    reference

let occupancy reg domains =
  let snap = Metrics.snapshot reg in
  List.init domains (fun i ->
      match
        Metrics.Snapshot.find ~labels:[ ("domain", string_of_int i) ] snap "pool_domain_occupancy"
      with
      | Some (Metrics.Snapshot.Gauge g) -> g
      | _ -> 0.)

let org_rows ~steps ~domain_counts (org, system) =
  let walk = walk (lattice system) ~steps ~seed:(Int64.of_int (Hashtbl.hash org)) in
  let sat = Eval.saturation_rate (Eval.workspace ~system ~message:message32 ()) in
  (* A fixed λ grid anchored to the base organization's saturation
     rate: long-message candidates saturate below the top rates, so
     the walk includes genuinely diverged (infinite) points and the
     bit-identity assertion covers them too. *)
  let lambdas =
    Array.init lambdas_per_step (fun j ->
        0.85 *. sat *. float_of_int (j + 1) /. float_of_int lambdas_per_step)
  in
  let served = float_of_int (steps * lambdas_per_step) in
  let reference, seq_wall = sequential walk lambdas in
  let configs =
    List.map
      (fun domains ->
        let memo = Memo.create ~metric:"model_memo" () in
        let got, wall, reg = pool_run walk lambdas ~domains ~memo:(Some memo) in
        assert_bits org (Printf.sprintf "%d domains, memo" domains) reference got;
        let got_nm, wall_nm, _ = pool_run walk lambdas ~domains ~memo:None in
        assert_bits org (Printf.sprintf "%d domains, no memo" domains) reference got_nm;
        let p = Printf.sprintf "%s.d%d." org domains in
        ( domains,
          served /. wall,
          [
            row (p ^ "wall_seconds") "s" wall;
            row ~better:(at_domains domains Higher) (p ^ "served_evals_per_sec") "1/s"
              (served /. wall);
            row (p ^ "speedup_vs_sequential") "x" (seq_wall /. wall);
            row (p ^ "memo.hits") "lookups" (float_of_int (Memo.hits memo));
            row (p ^ "memo.misses") "lookups" (float_of_int (Memo.misses memo));
            row (p ^ "memo.hit_rate") "fraction" (Memo.hit_rate memo);
            row (p ^ "memo.entries") "entries" (float_of_int (Memo.length memo));
            row (p ^ "no_memo.wall_seconds") "s" wall_nm;
            row (p ^ "no_memo.evals_per_sec") "1/s" (served /. wall_nm);
            row (p ^ "no_memo.speedup_vs_sequential") "x" (seq_wall /. wall_nm);
          ]
          @ List.mapi
              (fun i o -> row (Printf.sprintf "%sdomain_occupancy.%d" p i) "fraction" o)
              (occupancy reg domains) ))
      domain_counts
  in
  let best =
    List.fold_left
      (fun acc (d, eps, _) -> if d <= recommended_domains then Float.max acc eps else acc)
      0. configs
  in
  [
    row (org ^ ".sequential.wall_seconds") "s" seq_wall;
    row (org ^ ".sequential.evals_per_sec") "1/s" (served /. seq_wall);
    row ~better:Higher (org ^ ".best_served_evals_per_sec") "1/s" best;
  ]
  @ List.concat_map (fun (_, _, rows) -> rows) configs

let run ~quick =
  let steps = if quick then 96 else 512 in
  let domain_counts = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  with_minor_heap (fun () ->
      record ~suite:"parallel"
        ~title:
          (Printf.sprintf
             "multicore model evaluation engine: design-walk stress driver, 8x8 lattice (ICN2 \
              bandwidth scale x message length), %d steps x %d rates"
             steps lambdas_per_step)
        ~note:
          "sequential is the single-workspace 1-domain path; each config dN fans the walk over \
           an Eval.Pool of N domains with a fresh sharded memo (and once without, to isolate \
           the memo's contribution); every configuration is asserted bit-identical to the \
           sequential reference in process; best_served_evals_per_sec is taken over the \
           configs with at most recommended_domains domains, and rows above that are info; \
           speedups on few-core hosts come from the memo serving revisited (candidate, rate) \
           points, not from parallelism"
        ([
           row "minor_heap_words" "words" (float_of_int minor_heap_words);
           row "walk.steps" "steps" (float_of_int steps);
           row "walk.lambdas_per_step" "rates" (float_of_int lambdas_per_step);
           row "walk.served_points" "points" (float_of_int (steps * lambdas_per_step));
         ]
        @ List.concat_map (org_rows ~steps ~domain_counts) orgs))

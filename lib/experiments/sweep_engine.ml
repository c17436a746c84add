module Runner = Fatnet_sim.Runner
module Scenario = Fatnet_scenario.Scenario
module Summary = Fatnet_stats.Summary
module Pool = Fatnet_model.Eval.Pool
module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace
module Log = Fatnet_obs.Log

type cache_policy = No_cache | Cache_dir of string

type config = {
  domains : int option;
  cache : cache_policy;
  tracer : Trace.t;
  metrics : Metrics.t;
  retries : int;
  fail_fast : bool;
  faults : Fault.t;
  memo : Runner.point Fatnet_numerics.Memo.t option;
}

let default_config =
  {
    domains = None;
    cache = Cache_dir Point_cache.default_dir;
    tracer = Trace.disabled;
    metrics = Metrics.disabled;
    retries = 2;
    fail_fast = false;
    faults = Fault.none;
    memo = None;
  }

type stats = {
  points : int;
  executed : int;
  memo_hits : int;
  cache_hits : int;
  domains_used : int;
  occupancy : float array;
  wall_seconds : float;
  retries : int;
  quarantined : int;
  cache_degraded : bool;
}

type failure = {
  index : int;
  lambda_g : float option;
  attempts : int;
  error : exn;
}

exception Point_failure of failure
exception Failures of failure list

let describe { index; lambda_g; attempts; error } =
  Printf.sprintf "point %d%s failed after %d attempt%s: %s" index
    (match lambda_g with Some l -> Printf.sprintf " (lambda_g=%g)" l | None -> "")
    attempts
    (if attempts = 1 then "" else "s")
    (Printexc.to_string error)

let () =
  Printexc.register_printer (function
    | Point_failure f -> Some (describe f)
    | Failures fs ->
        Some
          (Printf.sprintf "Sweep_engine.Failures [%s]"
             (String.concat "; " (List.map describe fs)))
    | _ -> None)

type outcome = {
  results : Runner.point option array;
  quarantined : failure list;
  stats : stats;
}

let run ?(config = default_config) points =
  let t0 = Metrics.now_seconds () in
  let points = Array.of_list points in
  let n = Array.length points in
  (* The span tracer observes only, so a traced sweep is
     bit-identical to an untraced one, cache entries included (pinned
     by test). *)
  let tracer = config.tracer in
  Trace.in_span tracer "sweep" @@ fun sweep_sp ->
  Trace.attr_int sweep_sp "points" n;
  let sweep_id = Trace.id sweep_sp in
  let results : Runner.point option array = Array.make n None in
  let cache_dir = match config.cache with No_cache -> None | Cache_dir dir -> Some dir in
  let memo = config.memo in
  let keys =
    let want = cache_dir <> None || memo <> None in
    Array.map (fun s -> if want then Some (Point_cache.key s) else None) points
  in
  (* The point hash already encodes λ (points are fixed-load), so the
     memo's float axis is unused — a constant fills it. *)
  let memo_bits = 0L in
  let memo_find k =
    match memo with
    | None -> None
    | Some m -> Fatnet_numerics.Memo.find m ~key:k ~bits:memo_bits
  in
  let memo_store k entry =
    match memo with
    | None -> ()
    | Some m -> Fatnet_numerics.Memo.store m ~key:k ~bits:memo_bits entry
  in
  let mreg = config.metrics in
  let metrics_on = Metrics.is_enabled mreg in
  (* Cache degradation: any cache I/O failure (unreadable entry dir,
     read-only store target, an injected fault) flips the whole sweep
     to cache-off — one stderr warning, one [cache_errors] counter
     tick per observed error — instead of aborting and throwing away
     every completed point.  Faults cost work, never results.  The
     gate is one-way for a sweep and owns the warning and the
     [cache_errors] counter. *)
  let gate = Cache_gate.create ~metrics:mreg ~enabled:(cache_dir <> None) () in
  let degrade ~op exn = Cache_gate.trip gate ~op exn in
  (* Fault decisions at the execution site key on the point's own
     scenario hash, so a schedule follows the point, not its position
     or its domain. *)
  let fkeys =
    if Fault.is_none config.faults then [||] else Array.map Scenario.hash points
  in
  let fkey i = if Array.length fkeys = 0 then "" else fkeys.(i) in
  let find_seconds outcome =
    Metrics.histogram mreg "cache_find_seconds"
      ~labels:[ ("outcome", outcome) ]
      ~lo:0. ~hi:0.05 ~bins:20
      ~help:"Point-cache lookup latency by outcome"
  in
  let find_hit = find_seconds "hit" and find_miss = find_seconds "miss" in
  let cache_hits = ref 0 in
  let memo_hits = ref 0 in
  (* Memo first (a hashtable probe), disk second (a file read whose
     hits warm the memo for the next sweep sharing it). *)
  (match memo with
  | None -> ()
  | Some _ ->
      Array.iteri
        (fun i key ->
          match key with
          | Some k -> (
              match memo_find k with
              | Some point ->
                  results.(i) <- Some point;
                  incr memo_hits;
                  Trace.instant tracer "point"
                    [ ("index", string_of_int i); ("outcome", "memo") ]
              | None -> ())
          | None -> ())
        keys);
  (match cache_dir with
  | None -> ()
  | Some dir ->
      ignore (Point_cache.gc_tmp ~dir);
      Array.iteri
        (fun i key ->
          match key with
          | Some k when results.(i) = None && Cache_gate.ready gate -> (
              let t_find = Metrics.now_seconds () in
              let found =
                Trace.in_span tracer "cache.find" @@ fun csp ->
                Trace.attr_int csp "index" i;
                match Point_cache.find ~dir ~faults:config.faults k with
                | found ->
                    Trace.attr csp "outcome"
                      (match found with Some _ -> "hit" | None -> "miss");
                    Ok found
                | exception exn ->
                    Trace.attr csp "outcome" "error";
                    Error exn
              in
              match found with
              | Ok found -> (
                  let dt = Metrics.now_seconds () -. t_find in
                  match found with
                  | Some point ->
                      Metrics.observe find_hit dt;
                      results.(i) <- Some point;
                      memo_store k point;
                      incr cache_hits;
                      Trace.instant tracer "point"
                        [ ("index", string_of_int i); ("outcome", "cache") ]
                  | None -> Metrics.observe find_miss dt)
              | Error exn -> degrade ~op:"find" exn)
          | _ -> ())
        keys);
  let misses = Array.of_list (List.filter (fun i -> results.(i) = None) (List.init n Fun.id)) in
  let executed = Array.length misses in
  let domains_used =
    let d = match config.domains with Some d -> d | None -> Pool.recommended_domains () in
    max 1 (min d (max 1 executed))
  in
  let retried = Atomic.make 0 in
  let abort = Atomic.make false in
  let failures_lock = Mutex.create () in
  let failures = ref [] in
  (* Retry discipline: a failed attempt re-runs the same point up to
     [config.retries] extra times.  The fault plan keys its decisions
     on the attempt index, so a retry sees a fresh, deterministic
     decision; a successful attempt always runs the scenario with its
     own seed, which is why survivors are bit-identical to a
     fault-free sweep.  A point that exhausts its budget is
     quarantined, not fatal — unless [fail_fast], which records the
     first failure and tells every domain to stop starting points. *)
  let run_point i =
    let p = points.(i) in
    (* The domain's own registry: the pool hands each worker a fresh
       one, absorbed into the caller's after the join. *)
    let reg = Metrics.ambient () in
    (* Worker domains' ambient current span is 0, so the point span
       parents to the sweep root explicitly; everything below it
       (attempt, cache.store, the runner's sim spans, the model's
       solver spans) nests through the ambient current. *)
    Trace.in_span ~parent:sweep_id tracer "point" @@ fun psp ->
    Trace.attr_int psp "index" i;
    (match Scenario.fixed_lambda p with
    | Some l -> Trace.attr_float psp "lambda_g" l
    | None -> ());
    let rec attempt a =
      (* The attempt span covers exactly what the retry budget covers —
         the fault trip and the execution.  Result bookkeeping and
         retry decisions happen outside it, so a cache-store failure
         is cache degradation, never a retry. *)
      let attempted =
        Trace.in_span tracer "attempt" @@ fun asp ->
        Trace.attr_int asp "attempt" a;
        match
          Fault.trip config.faults Fault.Point_exec ~key:(fkey i) ~attempt:a ();
          Runner.run_point ~metrics:reg p
        with
        | r -> Ok r
        | exception exn -> Error exn
      in
      match attempted with
      | Ok r ->
          results.(i) <- Some r;
          Trace.attr psp "outcome" "executed";
          Trace.attr_int psp "attempts" (a + 1);
          (match keys.(i) with
          | Some k -> memo_store k r
          | None -> ());
          (match (cache_dir, keys.(i)) with
          | Some dir, Some k when Cache_gate.ready gate -> (
              let t_store = Metrics.now_seconds () in
              let stored =
                Trace.in_span tracer "cache.store" @@ fun _ ->
                match Point_cache.store ~dir ~faults:config.faults k r with
                | () -> Ok ()
                | exception exn -> Error exn
              in
              match stored with
              | Ok () ->
                  Metrics.observe
                    (Metrics.histogram reg "cache_store_seconds" ~lo:0. ~hi:0.05 ~bins:20
                       ~help:"Point-cache store latency")
                    (Metrics.now_seconds () -. t_store)
              | Error exn -> degrade ~op:"store" exn)
          | _ -> ())
      | Error exn ->
          if (not config.fail_fast) && a < config.retries then begin
            Atomic.incr retried;
            if metrics_on then
              Metrics.incr
                (Metrics.counter mreg "sweep_point_retries"
                   ~help:"Point executions retried after a failed attempt");
            attempt (a + 1)
          end
          else begin
            Trace.attr psp "outcome" "quarantined";
            Trace.attr_int psp "attempts" (a + 1);
            Mutex.lock failures_lock;
            failures :=
              { index = i; lambda_g = Scenario.fixed_lambda p; attempts = a + 1; error = exn }
              :: !failures;
            Mutex.unlock failures_lock;
            if config.fail_fast then Atomic.set abort true
          end
    in
    attempt 0
  in
  (* The pool's claim counter is the whole scheduler: each free domain
     claims the next miss in input order.  Input order starts Fig. 5's
     slowest points, the light-load ones, first; a load-based cost
     ranking starts them last (timings in DESIGN.md).  Gauges and
     histograms are single-writer: each domain records into its own
     registry (simulator and solver metrics reach it as the domain's
     ambient), absorbed into the sweep's registry after the join. *)
  let busy =
    if executed = 0 then Array.make domains_used 0.
    else begin
      let caller_reg = if metrics_on then Metrics.create () else Metrics.disabled in
      let busy =
        Metrics.with_ambient caller_reg @@ fun () ->
        Trace.with_ambient tracer @@ fun () ->
        Pool.with_pool ~domains:domains_used @@ fun pool ->
        ignore
          (Pool.map pool misses ~f:(fun _ i ->
               if not (Atomic.get abort) then run_point i));
        Pool.busy_seconds pool
      in
      Metrics.absorb mreg (Metrics.snapshot caller_reg);
      busy
    end
  in
  let wall = Metrics.now_seconds () -. t0 in
  let occupancy = Array.map (fun b -> if wall > 0. then b /. wall else 0.) busy in
  let quarantined = List.sort (fun a b -> compare a.index b.index) !failures in
  if metrics_on then begin
    Metrics.add (Metrics.counter mreg "sweep_points_total") n;
    Metrics.add (Metrics.counter mreg "sweep_points_executed") executed;
    Metrics.add
      (Metrics.counter mreg "sweep_memo_hits"
         ~help:"Points served by the in-memory memo instead of disk or execution")
      !memo_hits;
    Metrics.add (Metrics.counter mreg "sweep_cache_hits") !cache_hits;
    Metrics.add
      (Metrics.counter mreg "sweep_points_quarantined"
         ~help:"Points that exhausted their retry budget this sweep")
      (List.length quarantined);
    Metrics.add
      (Metrics.counter mreg "sweep_replications"
         ~help:"Simulation replications run across executed points")
      (Array.fold_left
         (fun acc i ->
           match results.(i) with Some r -> acc + r.Runner.replications | None -> acc)
         0 misses);
    Metrics.set (Metrics.gauge mreg "sweep_domains_used") (float_of_int domains_used);
    Metrics.set (Metrics.gauge mreg "sweep_wall_seconds") wall;
    Array.iteri
      (fun d o ->
        Metrics.set
          (Metrics.gauge mreg "sweep_domain_occupancy"
             ~labels:[ ("domain", string_of_int d) ]
             ~help:"Fraction of the sweep wall time this domain spent executing points")
          o)
      occupancy
  end;
  Trace.attr_int sweep_sp "executed" executed;
  Trace.attr_int sweep_sp "memo_hits" !memo_hits;
  Trace.attr_int sweep_sp "cache_hits" !cache_hits;
  Trace.attr_int sweep_sp "quarantined" (List.length quarantined);
  if config.fail_fast && quarantined <> [] then raise (Failures quarantined);
  {
    results;
    quarantined;
    stats =
      {
        points = n;
        executed;
        memo_hits = !memo_hits;
        cache_hits = !cache_hits;
        domains_used;
        occupancy;
        wall_seconds = wall;
        retries = Atomic.get retried;
        quarantined = List.length quarantined;
        cache_degraded = cache_dir <> None && Cache_gate.degraded gate;
      };
  }

let results_exn (o : outcome) =
  if o.quarantined <> [] then raise (Failures o.quarantined);
  Array.map (function Some r -> r | None -> assert false) o.results

let run_sweep ?config scenario = run ?config (Scenario.points scenario)

let mean_latencies ?config points =
  let results = results_exn (run ?config points) in
  Array.to_list (Array.map (fun (r : Runner.point) -> r.summary.Summary.mean) results)

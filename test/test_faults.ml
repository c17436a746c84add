(* The resilience layer: deterministic fault injection, per-point
   retry/quarantine, cache degradation, and crash-safe cache hygiene.

   The headline property pinned here is the engine's failure-semantics
   contract: for ANY injected fault schedule, the surviving points'
   summaries are bit-identical to a fault-free run — faults cost work
   (retries, recomputation, a disabled cache), never results. *)

module Fault = Fatnet_experiments.Fault
module Fs_util = Fatnet_experiments.Fs_util
module Point_cache = Fatnet_experiments.Point_cache
module Engine = Fatnet_experiments.Sweep_engine
module Scenario = Fatnet_scenario.Scenario
module Presets = Fatnet_model.Presets
module Metrics = Fatnet_obs.Metrics
module Cli = Fatnet_cli.Cli

let message = Presets.message ~m_flits:8 ~d_m_bytes:256.

let small_system =
  Fatnet_model.Params.homogeneous ~m:4 ~tree_depth:2 ~clusters:4 ~icn1:Presets.net1
    ~ecn1:Presets.net2 ~icn2:Presets.net1

let tiny_protocol =
  { Scenario.quick_protocol with Scenario.warmup = 10; measured = 100; drain = 10 }

let point lambda_g =
  Scenario.make ~name:"fault-test" ~system:small_system ~message ~protocol:tiny_protocol
    ~load:(Scenario.Fixed lambda_g) ()

let points = List.init 6 (fun i -> point (1e-4 *. float_of_int (i + 1)))

let with_temp_dir f =
  let dir = Filename.temp_file "fatnet-fault-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (match Sys.readdir dir with
      | files ->
          Array.iter (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ()) files
      | exception Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let hex = Printf.sprintf "%h"

(* --- the fault plan ----------------------------------------------- *)

let plan_is_deterministic () =
  let plan = Fault.make ~seed:7L [ (Fault.Point_exec, 0.5) ] in
  List.iter
    (fun key ->
      List.iter
        (fun attempt ->
          Alcotest.(check bool)
            (Printf.sprintf "pure function of (key=%s, attempt=%d)" key attempt)
            (Fault.fires plan Fault.Point_exec ~key ~attempt)
            (Fault.fires plan Fault.Point_exec ~key ~attempt))
        [ 0; 1; 2 ])
    [ "a"; "b"; "c"; "a much longer key with spaces" ];
  (* Sites not in the plan never fire; rate-1 sites always do. *)
  Alcotest.(check bool) "unlisted site silent" false
    (Fault.fires plan Fault.Cache_store ~key:"a" ~attempt:0);
  let always = Fault.make [ (Fault.Tmp_rename, 1.) ] in
  Alcotest.(check bool) "rate 1 always fires" true
    (List.for_all
       (fun key -> Fault.fires always Fault.Tmp_rename ~key ~attempt:0)
       [ "x"; "y"; "z" ]);
  Alcotest.(check bool) "none never fires" false
    (Fault.fires Fault.none Fault.Point_exec ~key:"x" ~attempt:0);
  Alcotest.(check bool) "none is none" true (Fault.is_none Fault.none);
  Alcotest.(check bool) "zero rates collapse to none" true
    (Fault.is_none (Fault.make [ (Fault.Point_exec, 0.) ]))

let plan_rate_is_roughly_respected () =
  let plan = Fault.make ~seed:11L [ (Fault.Cache_find, 0.5) ] in
  let n = 400 in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    if Fault.fires plan Fault.Cache_find ~key:(string_of_int i) ~attempt:0 then incr hits
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d fired at rate 0.5" !hits n)
    true
    (!hits > n / 4 && !hits < 3 * n / 4)

let plan_trip_raises_injected () =
  let plan = Fault.make [ (Fault.Cache_store, 1.) ] in
  (match Fault.trip plan Fault.Cache_store ~key:"k" () with
  | () -> Alcotest.fail "expected Injected"
  | exception Fault.Injected (site, key) ->
      Alcotest.(check string) "site" "cache_store" (Fault.site_name site);
      Alcotest.(check string) "key" "k" key);
  Fault.trip Fault.none Fault.Cache_store ~key:"k" ()

let spec_round_trip () =
  (match Fault.of_spec "seed=42, point_exec=0.5, cache_store=1" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok plan ->
      Alcotest.(check string) "canonical rendering" "seed=42,point_exec=0.5,cache_store=1"
        (Fault.to_spec plan);
      Alcotest.(check bool) "re-parses to the same plan" true
        (Fault.of_spec (Fault.to_spec plan) = Ok plan));
  (match Fault.of_spec "" with
  | Ok plan -> Alcotest.(check bool) "empty spec is no plan" true (Fault.is_none plan)
  | Error e -> Alcotest.failf "empty spec rejected: %s" e);
  let rejected spec =
    match Fault.of_spec spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad spec %S" spec
  in
  rejected "bogus_site=1";
  rejected "point_exec=2";
  rejected "point_exec=x";
  rejected "seed=notanumber";
  rejected "point_exec"

(* --- shared mkdir_p ----------------------------------------------- *)

let mkdir_p_creates_and_tolerates () =
  with_temp_dir (fun dir ->
      let deep = Filename.concat (Filename.concat (Filename.concat dir "a") "b") "c" in
      Fs_util.mkdir_p deep;
      Alcotest.(check bool) "nested path created" true (Sys.is_directory deep);
      (* Idempotent — and in particular safe when another process
         created the directory between the existence check and mkdir. *)
      Fs_util.mkdir_p deep;
      Alcotest.(check bool) "still there" true (Sys.is_directory deep);
      Sys.rmdir deep;
      Sys.rmdir (Filename.dirname deep);
      Sys.rmdir (Filename.concat dir "a"))

(* --- point-cache hygiene ------------------------------------------ *)

let tmp_files dir =
  Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".tmp")

let backdate path =
  let old = Unix.gettimeofday () -. 3600. in
  Unix.utimes path old old

let store_failure_leaves_no_tmp () =
  with_temp_dir (fun dir ->
      let entry =
        {
          Point_cache.summary =
            {
              Fatnet_stats.Summary.count = 1;
              mean = 1.;
              stddev = 0.;
              min = 1.;
              max = 1.;
              p50 = 1.;
              p90 = 1.;
              p99 = 1.;
              p999 = 1.;
            };
          ci_half_width = 0.;
          replications = 1;
          events = 1;
        }
      in
      let faults = Fault.make [ (Fault.Tmp_rename, 1.) ] in
      (match Point_cache.store ~dir ~faults "some-key" entry with
      | () -> Alcotest.fail "expected the injected rename fault"
      | exception Fault.Injected (Fault.Tmp_rename, _) -> ());
      Alcotest.(check (list string)) "no .tmp debris after a failed store" [] (tmp_files dir);
      (* The fault fired between write and rename, so no entry landed
         either — and a clean store afterwards works. *)
      Alcotest.(check bool) "nothing stored" true (Point_cache.find ~dir "some-key" = None);
      Point_cache.store ~dir "some-key" entry;
      Alcotest.(check bool) "clean store lands" true (Point_cache.find ~dir "some-key" <> None))

let gc_tmp_removes_only_stale () =
  with_temp_dir (fun dir ->
      let fresh = Filename.concat dir "fresh.tmp" in
      let stale = Filename.concat dir "stale.tmp" in
      List.iter (fun p -> Out_channel.with_open_text p (fun oc -> output_string oc "x")) [ fresh; stale ];
      backdate stale;
      Alcotest.(check int) "one stale file collected" 1 (Point_cache.gc_tmp ~dir);
      Alcotest.(check (list string)) "fresh writer's file untouched" [ "fresh.tmp" ] (tmp_files dir);
      Alcotest.(check int) "idempotent" 0 (Point_cache.gc_tmp ~dir);
      Alcotest.(check int) "missing dir is zero, not an exception" 0
        (Point_cache.gc_tmp ~dir:(Filename.concat dir "nonexistent")))

let clear_spares_live_writers () =
  with_temp_dir (fun dir ->
      let fresh = Filename.concat dir "live-writer.tmp" in
      let stale = Filename.concat dir "crashed.tmp" in
      let entry = Filename.concat dir "deadbeef.point" in
      List.iter
        (fun p -> Out_channel.with_open_text p (fun oc -> output_string oc "x"))
        [ fresh; stale; entry ];
      backdate stale;
      Point_cache.clear ~dir;
      Alcotest.(check bool) "entry removed" false (Sys.file_exists entry);
      Alcotest.(check bool) "crash debris removed" false (Sys.file_exists stale);
      Alcotest.(check bool) "a live writer's temp file survives" true (Sys.file_exists fresh))

(* --- the headline guarantee --------------------------------------- *)

(* Survivors of ANY fault schedule are bit-identical to a fault-free
   sweep, and exactly the points whose schedule exhausts the retry
   budget are quarantined.  The schedule is predicted from the plan
   itself ([Fault.fires] keyed on scenario hashes), so the assertion
   covers which points die, which retry, and what every survivor
   returns. *)
let injected_faults_quarantine_predictably () =
  let keys = List.map Scenario.hash points in
  let retries = 1 in
  let rate = 0.5 in
  (* Pick (deterministically) a seed whose schedule kills some points
     but not all, and retries at least one survivor into success. *)
  let fires0 plan k = Fault.fires plan Fault.Point_exec ~key:k ~attempt:0 in
  let dies plan k = fires0 plan k && Fault.fires plan Fault.Point_exec ~key:k ~attempt:1 in
  let pick seed =
    let plan = Fault.make ~seed [ (Fault.Point_exec, rate) ] in
    let killed = List.filter (dies plan) keys in
    let survivor_retried k = fires0 plan k && not (dies plan k) in
    if killed <> [] && List.length killed < List.length keys
       && List.exists survivor_retried keys
    then Some plan
    else None
  in
  let rec search s =
    if s > 999 then Alcotest.fail "no seed below 1000 gives a mixed schedule"
    else match pick (Int64.of_int s) with Some plan -> plan | None -> search (s + 1)
  in
  let plan = search 0 in
  let predicted_dead =
    List.concat (List.mapi (fun i k -> if dies plan k then [ i ] else []) keys)
  in
  let predicted_retries = List.length (List.filter (fires0 plan) keys) in
  let base =
    { Engine.default_config with Engine.domains = Some 2; cache = Engine.No_cache; retries }
  in
  let clean = Engine.run ~config:base points in
  Alcotest.(check (list int)) "fault-free run quarantines nothing" []
    (List.map (fun f -> f.Engine.index) clean.Engine.quarantined);
  let faulty = Engine.run ~config:{ base with Engine.faults = plan } points in
  Alcotest.(check (list int)) "exactly the predicted points quarantined" predicted_dead
    (List.map (fun f -> f.Engine.index) faulty.Engine.quarantined);
  Alcotest.(check int) "every first-attempt fault was retried" predicted_retries
    faulty.Engine.stats.Engine.retries;
  List.iter
    (fun f ->
      Alcotest.(check bool) "quarantined failures carry the injected fault" true
        (match f.Engine.error with Fault.Injected (Fault.Point_exec, _) -> true | _ -> false);
      Alcotest.(check int) "budget exhausted" (retries + 1) f.Engine.attempts;
      Alcotest.(check bool) "offered load reported" true (f.Engine.lambda_g <> None))
    faulty.Engine.quarantined;
  List.iteri
    (fun i _ ->
      match (clean.Engine.results.(i), faulty.Engine.results.(i)) with
      | Some c, Some f ->
          Alcotest.(check string)
            (Printf.sprintf "survivor %d bit-identical mean" i)
            (hex c.Engine.summary.Fatnet_stats.Summary.mean)
            (hex f.Engine.summary.Fatnet_stats.Summary.mean);
          Alcotest.(check bool)
            (Printf.sprintf "survivor %d identical summary" i)
            true
            (c.Engine.summary = f.Engine.summary)
      | Some _, None ->
          Alcotest.(check bool)
            (Printf.sprintf "point %d missing only if predicted dead" i)
            true (List.mem i predicted_dead)
      | None, _ -> Alcotest.failf "fault-free run lost point %d" i)
    points

(* --- cache degradation -------------------------------------------- *)

let entry_counter snap name labels =
  match Metrics.Snapshot.find ~labels snap name with
  | Some (Metrics.Snapshot.Counter n) -> n
  | _ -> 0

let store_faults_degrade_cache () =
  with_temp_dir (fun dir ->
      let reg = Metrics.create () in
      let config =
        {
          Engine.default_config with
          Engine.domains = Some 1;
          cache = Engine.Cache_dir dir;
          metrics = reg;
          faults = Fault.make [ (Fault.Cache_store, 1.) ];
        }
      in
      let outcome = Engine.run ~config points in
      Alcotest.(check int) "no quarantine from cache faults" 0
        outcome.Engine.stats.Engine.quarantined;
      Alcotest.(check bool) "every point has a result" true
        (Array.for_all (fun r -> r <> None) outcome.Engine.results);
      Alcotest.(check bool) "cache flagged degraded" true
        outcome.Engine.stats.Engine.cache_degraded;
      Alcotest.(check bool) "cache error counted" true
        (entry_counter (Metrics.snapshot reg) "cache_errors"
           [ ("op", "store"); ("kind", "injected") ]
         >= 1);
      Alcotest.(check (list string)) "nothing stored into the degraded cache" []
        (List.filter
           (fun f -> Filename.check_suffix f ".point")
           (Array.to_list (Sys.readdir dir))))

let find_faults_degrade_to_recompute () =
  with_temp_dir (fun dir ->
      let base =
        { Engine.default_config with Engine.domains = Some 1; cache = Engine.Cache_dir dir }
      in
      let clean = Engine.run ~config:base points in
      let warm = Engine.run ~config:base points in
      Alcotest.(check int) "warm control run is all hits"
        (List.length points)
        warm.Engine.stats.Engine.cache_hits;
      let degraded =
        Engine.run
          ~config:{ base with Engine.faults = Fault.make [ (Fault.Cache_find, 1.) ] }
          points
      in
      Alcotest.(check int) "no hits once find faults" 0
        degraded.Engine.stats.Engine.cache_hits;
      Alcotest.(check int) "every point recomputed" (List.length points)
        degraded.Engine.stats.Engine.executed;
      Alcotest.(check bool) "flagged degraded" true
        degraded.Engine.stats.Engine.cache_degraded;
      Alcotest.(check int) "nothing quarantined" 0 degraded.Engine.stats.Engine.quarantined;
      Array.iteri
        (fun i r ->
          match (clean.Engine.results.(i), r) with
          | Some c, Some d ->
              Alcotest.(check string) "recomputation bit-identical to first run"
                (hex c.Engine.summary.Fatnet_stats.Summary.mean)
                (hex d.Engine.summary.Fatnet_stats.Summary.mean)
          | _ -> Alcotest.failf "missing result for point %d" i)
        degraded.Engine.results)

let stale_version_entries_are_misses () =
  (* Engine-version migration: entries written by an older engine
     version must read as plain cache misses — recomputed and
     re-stored at the current version, with [cache_errors] untouched
     and no degradation. *)
  with_temp_dir (fun dir ->
      let reg = Metrics.create () in
      let config =
        {
          Engine.default_config with
          Engine.domains = Some 1;
          cache = Engine.Cache_dir dir;
          metrics = reg;
        }
      in
      let cold = Engine.run ~config points in
      let entries =
        List.filter
          (fun f -> Filename.check_suffix f ".point")
          (Array.to_list (Sys.readdir dir))
      in
      Alcotest.(check int) "one entry per point" (List.length points) (List.length entries);
      (* Rewrite each entry's magic line to the previous engine
         version — exactly what an upgraded binary finds on disk. *)
      List.iter
        (fun f ->
          let path = Filename.concat dir f in
          let ic = open_in_bin path in
          let body = really_input_string ic (in_channel_length ic) in
          close_in ic;
          let stale =
            Printf.sprintf "fatnet-point-cache %d" (Point_cache.engine_version - 1)
          in
          let body =
            match String.index_opt body '\n' with
            | Some i -> stale ^ String.sub body i (String.length body - i)
            | None -> stale
          in
          let oc = open_out_bin path in
          output_string oc body;
          close_out oc)
        entries;
      let migrated = Engine.run ~config points in
      Alcotest.(check int) "stale entries are plain misses" 0
        migrated.Engine.stats.Engine.cache_hits;
      Alcotest.(check int) "every point recomputed" (List.length points)
        migrated.Engine.stats.Engine.executed;
      Alcotest.(check bool) "cache not degraded" false
        migrated.Engine.stats.Engine.cache_degraded;
      let snap = Metrics.snapshot reg in
      List.iter
        (fun (s : Metrics.Snapshot.series) ->
          if s.Metrics.Snapshot.name = "cache_errors" then
            match s.Metrics.Snapshot.value with
            | Metrics.Snapshot.Counter n ->
                Alcotest.(check int) "a version miss is not a cache error" 0 n
            | _ -> ())
        snap.Metrics.Snapshot.series;
      Array.iteri
        (fun i r ->
          match (cold.Engine.results.(i), r) with
          | Some c, Some m ->
              Alcotest.(check string) "recomputation bit-identical"
                (hex c.Engine.summary.Fatnet_stats.Summary.mean)
                (hex m.Engine.summary.Fatnet_stats.Summary.mean);
              Alcotest.(check bool) "full summary identical" true
                (c.Engine.summary = m.Engine.summary)
          | _ -> Alcotest.failf "missing result for point %d" i)
        migrated.Engine.results;
      (* The recomputation re-stored current-version entries: a third
         run is all hits again. *)
      let rewarm = Engine.run ~config points in
      Alcotest.(check int) "re-stored at the current version"
        (List.length points)
        rewarm.Engine.stats.Engine.cache_hits)

let rename_faults_degrade_without_debris () =
  with_temp_dir (fun dir ->
      let config =
        {
          Engine.default_config with
          Engine.domains = Some 1;
          cache = Engine.Cache_dir dir;
          faults = Fault.make [ (Fault.Tmp_rename, 1.) ];
        }
      in
      let outcome = Engine.run ~config points in
      Alcotest.(check bool) "sweep survives rename faults" true
        (Array.for_all (fun r -> r <> None) outcome.Engine.results);
      Alcotest.(check bool) "flagged degraded" true outcome.Engine.stats.Engine.cache_degraded;
      Alcotest.(check (list string)) "failed stores leave no .tmp debris" [] (tmp_files dir))

(* --- CLI error boundary ------------------------------------------- *)

(* What [f] writes to the stderr file descriptor, and its result. *)
let with_stderr_captured f =
  let path = Filename.temp_file "fatnet-stderr" "" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  flush stderr;
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (r, text)

let guard_exit_codes () =
  Alcotest.(check int) "success passes through" 0 (Cli.guard (fun () -> Ok 0));
  Alcotest.(check int) "Error is usage (2)" 2 (Cli.guard (fun () -> Error "bad flag"));
  Alcotest.(check int) "Failure is usage (2)" 2 (Cli.guard (fun () -> failwith "bad spec"));
  Alcotest.(check int) "Sys_error is runtime (1)" 1
    (Cli.guard (fun () -> raise (Sys_error "disk on fire")));
  let failure index lambda_g attempts =
    { Engine.index; lambda_g; attempts; error = Failure "sim blew up" }
  in
  let code, err =
    with_stderr_captured (fun () ->
        Cli.guard (fun () ->
            raise (Engine.Failures [ failure 3 (Some 0.7) 3; failure 5 None 1 ])))
  in
  Alcotest.(check int) "sweep failures are runtime (1)" 1 code;
  Alcotest.(check string) "one line per point, through the registered printer"
    "error: point 3 (lambda_g=0.7) failed after 3 attempts: Failure(\"sim blew up\")\n\
     error: point 5 failed after 1 attempt: Failure(\"sim blew up\")\n"
    err;
  let code, err =
    with_stderr_captured (fun () ->
        Cli.guard (fun () ->
            Cli.with_address "tcp:127.0.0.1:1" (fun () ->
                raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", "")))))
  in
  Alcotest.(check int) "socket errors are runtime (1)" 1 code;
  Alcotest.(check string) "one line naming the call and the address"
    "error: connect tcp:127.0.0.1:1: Connection refused\n" err

let inject_faults_flag_round_trips () =
  let opts =
    {
      Cli.domains = Some 1;
      no_cache = true;
      cache_dir = None;
      retries = Some 5;
      fail_fast = true;
      inject_faults = Some "seed=9,point_exec=0.25";
    }
  in
  let config = Cli.engine_of_opts opts in
  Alcotest.(check int) "retries wired through" 5 config.Engine.retries;
  Alcotest.(check bool) "fail-fast wired through" true config.Engine.fail_fast;
  Alcotest.(check string) "fault plan wired through" "seed=9,point_exec=0.25"
    (Fault.to_spec config.Engine.faults);
  Alcotest.(check int) "bad spec is a usage error" 2
    (Cli.guard (fun () ->
         ignore (Cli.engine_of_opts { opts with Cli.inject_faults = Some "bogus=1" });
         Ok 0))

(* --- the cache gate ------------------------------------------------ *)

module Gate = Fatnet_experiments.Cache_gate

let gate_disabled_is_inert () =
  let g = Gate.create ~enabled:false () in
  Alcotest.(check bool) "never ready" false (Gate.ready g);
  Gate.trip g ~op:"find" (Sys_error "boom");
  Alcotest.(check bool) "trip is a no-op target" false (Gate.ready g);
  Alcotest.(check int) "no trips counted" 0 (Gate.trips g)

let gate_one_way_without_recovery () =
  let g = Gate.create ~enabled:true () in
  Alcotest.(check bool) "starts up" true (Gate.ready g);
  Alcotest.(check bool) "not degraded" false (Gate.degraded g);
  Gate.trip g ~op:"store" (Sys_error "disk full");
  Alcotest.(check bool) "down after trip" false (Gate.ready g);
  Alcotest.(check bool) "degraded" true (Gate.degraded g);
  Alcotest.(check int) "one trip" 1 (Gate.trips g);
  (* With no recover_after the trip is permanent, and repeat trips of
     an already-down gate don't re-count (one warning per trip). *)
  Gate.trip g ~op:"store" (Sys_error "disk still full");
  Alcotest.(check int) "second trip while down not counted" 1 (Gate.trips g);
  for _ = 1 to 100 do
    Alcotest.(check bool) "stays down" false (Gate.ready g)
  done

let counter_with_op reg name op =
  List.fold_left
    (fun acc (s : Metrics.Snapshot.series) ->
      match s.Metrics.Snapshot.value with
      | Metrics.Snapshot.Counter n
        when s.Metrics.Snapshot.name = name
             && List.assoc_opt "op" s.Metrics.Snapshot.labels = Some op ->
          acc + n
      | _ -> acc)
    0
    (Metrics.snapshot reg).Metrics.Snapshot.series

let gate_reprobe_after_n () =
  let reg = Metrics.create () in
  let g = Gate.create ~recover_after:3 ~metrics:reg ~enabled:true () in
  Gate.trip g ~op:"find" (Sys_error "transient");
  (* Exactly recover_after ready-checks answer false, then the gate
     optimistically re-opens. *)
  Alcotest.(check (list bool)) "3 skips then open"
    [ false; false; false; true ]
    (List.init 4 (fun _ -> Gate.ready g));
  Alcotest.(check bool) "no longer degraded" false (Gate.degraded g);
  (* A failure during the re-probe trips it again, counted again. *)
  Gate.trip g ~op:"find" (Sys_error "still transient");
  Alcotest.(check int) "second trip counted" 2 (Gate.trips g);
  Alcotest.(check bool) "down again" false (Gate.ready g);
  let count name =
    match Metrics.Snapshot.find (Metrics.snapshot reg) name with
    | Some (Metrics.Snapshot.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check int) "one re-probe recorded" 1 (count "cache_reprobes");
  Alcotest.(check bool) "errors labelled by op" true
    (counter_with_op reg "cache_errors" "find" >= 2)

let gate_concurrent_countdown () =
  (* Domains hammering [ready] on a down gate: the CAS countdown must
     hand out exactly [recover_after] skips before the single re-open,
     never a lost decrement or a double re-open. *)
  let n = 1000 in
  let g = Gate.create ~recover_after:n ~enabled:true () in
  Gate.trip g ~op:"find" (Sys_error "transient");
  let opens = Atomic.make 0 and skips = Atomic.make 0 in
  let worker () =
    for _ = 1 to n do
      if Gate.ready g then Atomic.incr opens else Atomic.incr skips
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join ds;
  (* 4n checks against an n-countdown: n skips, then every later
     check (including the re-opening one) answers true. *)
  Alcotest.(check int) "exactly n skips" n (Atomic.get skips);
  Alcotest.(check int) "the rest pass" (3 * n) (Atomic.get opens)

let () =
  Alcotest.run "faults"
    [
      ( "fault plan",
        [
          Alcotest.test_case "deterministic" `Quick plan_is_deterministic;
          Alcotest.test_case "rate respected" `Quick plan_rate_is_roughly_respected;
          Alcotest.test_case "trip raises" `Quick plan_trip_raises_injected;
          Alcotest.test_case "spec round trip" `Quick spec_round_trip;
        ] );
      ( "filesystem",
        [
          Alcotest.test_case "mkdir_p" `Quick mkdir_p_creates_and_tolerates;
          Alcotest.test_case "failed store leaves no tmp" `Quick store_failure_leaves_no_tmp;
          Alcotest.test_case "gc_tmp staleness" `Quick gc_tmp_removes_only_stale;
          Alcotest.test_case "clear spares live writers" `Quick clear_spares_live_writers;
        ] );
      ( "resilient sweeps",
        [
          Alcotest.test_case "survivors bit-identical" `Quick
            injected_faults_quarantine_predictably;
          Alcotest.test_case "store faults degrade cache" `Quick store_faults_degrade_cache;
          Alcotest.test_case "find faults recompute" `Quick find_faults_degrade_to_recompute;
          Alcotest.test_case "stale version migrates" `Quick stale_version_entries_are_misses;
          Alcotest.test_case "rename faults leave no debris" `Quick
            rename_faults_degrade_without_debris;
        ] );
      ( "cache gate",
        [
          Alcotest.test_case "disabled is inert" `Quick gate_disabled_is_inert;
          Alcotest.test_case "one-way without recovery" `Quick
            gate_one_way_without_recovery;
          Alcotest.test_case "re-probe after N" `Quick gate_reprobe_after_n;
          Alcotest.test_case "concurrent countdown" `Quick gate_concurrent_countdown;
        ] );
      ( "cli",
        [
          Alcotest.test_case "guard exit codes" `Quick guard_exit_codes;
          Alcotest.test_case "fault flags" `Quick inject_faults_flag_round_trips;
        ] );
    ]

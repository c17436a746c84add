(* What every suite shares: the record it returns, the host facts,
   the monotonic clock, the domains rule and the bit-identity exit. *)

module Record = Fatnet_report.Bench_record

let recommended_domains = Fatnet_model.Eval.Pool.recommended_domains ()

let message32 = Fatnet_model.Presets.message ~m_flits:32 ~d_m_bytes:256.
let orgs = Fatnet_model.Presets.[ ("org_544", org_544); ("org_1120", org_1120) ]

(* The quick simulation protocol scaled to [measured] messages, with
   a tenth of that as warm-up and as drain. *)
let sim_protocol measured =
  {
    Fatnet_scenario.Scenario.quick_protocol with
    warmup = max 1 (measured / 10);
    measured;
    drain = max 1 (measured / 10);
  }

(* The simulated operating point the sim, obs and tail suites time:
   [system] (org_544 by default) with 32-flit messages at
   λ_g = 1e-4 under [protocol]. *)
let sim_point ?(system = Fatnet_model.Presets.org_544) protocol =
  Fatnet_scenario.Scenario.make ~system ~message:message32 ~protocol
    ~load:(Fatnet_scenario.Scenario.Fixed 1e-4) ()

(* [f ()] and the seconds it took. *)
let timed f =
  let t0 = Fatnet_obs.Metrics.now_seconds () in
  let r = f () in
  (r, Fatnet_obs.Metrics.now_seconds () -. t0)

let row ?(better = Record.Info) name unit value = { Record.name; value; unit; better }

(* A row measured at more domains than the host recommends is
   oversubscribed: it is kept as information and never guarded. *)
let at_domains domains better = if domains > recommended_domains then Record.Info else better

let record ~suite ~title ~note ?(gates = []) rows =
  {
    Record.suite;
    title;
    note;
    host = { Record.recommended_domains = Some recommended_domains; ocaml = Some Sys.ocaml_version };
    rows;
    gates;
  }

let gate_max metric b = { Record.metric; bound = Record.Max b }
let gate_min metric b = { Record.metric; bound = Record.Min b }

(* A wrong answer is not a slow answer: the bit-identity and golden
   assertions exit before any record is written. *)
let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* Domains time-sharing few cores serialize on minor-GC safepoint
   barriers: every minor collection waits for every domain to be
   scheduled, and with the default 256k-word minor heap the workspace
   builds trigger collections constantly — measured as a ~3x wall
   inflation at 4 domains on one CPU.  The parallel and serve suites
   run under this larger per-domain minor heap, sequential baselines
   included, so their comparisons stay fair. *)
let minor_heap_words = 8 * 1024 * 1024

let with_minor_heap f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = minor_heap_words };
  Fun.protect ~finally:(fun () -> Gc.set saved) f

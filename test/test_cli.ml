(* The override rule: [Cli.resolve]/[Cli.apply] over a scenario file
   whose protocol is not the default (store-and-forward, streaming
   off, seed 7, its own [replication] section).  Every flag given
   replaces the field it names; every flag absent keeps the file's
   value; a flag that cannot take effect is an [Error]. *)

module Cli = Fatnet_cli.Cli
module Scenario = Fatnet_scenario.Scenario
module Params = Fatnet_model.Params
module Presets = Fatnet_model.Presets
module Destination = Fatnet_workload.Destination

let base =
  Scenario.make ~name:"cli" ~system:Presets.org_544
    ~message:(Presets.message ~m_flits:32 ~d_m_bytes:256.)
    ~protocol:
      {
        Scenario.warmup = 200;
        measured = 2_000;
        drain = 200;
        seed = 7L;
        cd_mode = Scenario.Store_and_forward;
        streaming = false;
      }
    ~replication:
      {
        Scenario.target_rel = 0.2;
        confidence = 0.9;
        min_reps = 3;
        max_reps = 5;
        target = Scenario.Quantile 0.9;
      }
    ~load:(Scenario.Linear { lambda_max = 1e-3; steps = 4 })
    ()

let path =
  lazy
    (let p = Filename.temp_file "fatnet-cli" ".scn" in
     at_exit (fun () -> try Sys.remove p with Sys_error _ -> ());
     Scenario.save ~path:p base;
     p)

let resolve o = Cli.resolve ~scenario:(Some (Lazy.force path)) o

let scenario =
  Alcotest.testable Scenario.pp (fun a b -> Scenario.canonical a = Scenario.canonical b)

let check_ok name expected got =
  match got with
  | Ok s -> Alcotest.check scenario name expected s
  | Error e -> Alcotest.failf "%s: unexpected error %s" name e

let check_error name got =
  Alcotest.(check bool) name true (Result.is_error got)

let with_protocol f = { base with Scenario.protocol = f base.Scenario.protocol }
let replication = Option.get base.Scenario.replication

let with_replication f = { base with Scenario.replication = Some (f replication) }

let no_flag_keeps_the_file () =
  check_ok "no flag: the file as written" base (resolve Cli.none)

let system_and_message () =
  let sys = { Cli.none.Cli.system with Cli.org = Some "1120" } in
  check_ok "--org" { base with Scenario.system = Presets.org_1120 }
    (resolve { Cli.none with system = sys });
  check_ok "--m-flits"
    { base with Scenario.message = { base.Scenario.message with Params.length_flits = 64 } }
    (resolve { Cli.none with message = { Cli.m_flits = Some 64; flit_bytes = None } });
  check_ok "--flit-bytes"
    { base with Scenario.message = { base.Scenario.message with Params.flit_bytes = 512. } }
    (resolve { Cli.none with message = { Cli.m_flits = None; flit_bytes = Some 512. } });
  check_error "--org with --clusters"
    (resolve { Cli.none with system = { sys with Cli.clusters = Some 2 } })

(* What [sweep] passes: at the parent it dropped --seed, so the run
   kept the file's seed. *)
let seed () =
  check_ok "--seed" (with_protocol (fun p -> { p with Scenario.seed = 9L }))
    (resolve { Cli.none with seed = Some 9L })

(* What [fig] passes: sizes, but no cd-mode, streaming or seed flag.
   At the parent [fig --scenario] replaced all three. *)
let sizes_keep_the_rest () =
  let sized (z : Scenario.protocol) =
    with_protocol (fun p ->
        { p with Scenario.warmup = z.Scenario.warmup; measured = z.measured; drain = z.drain })
  in
  check_ok "--full sets only the counts" (sized Scenario.default_protocol)
    (resolve { Cli.none with sizes = Some Scenario.default_protocol });
  check_ok "--quick sets only the counts" (sized Cli.smoke_sizes)
    (resolve { Cli.none with sizes = Some Cli.smoke_sizes })

let cd_mode () =
  let cut = { base with Scenario.protocol = Scenario.default_protocol } in
  check_ok "--store-and-forward"
    { cut with Scenario.protocol = { Scenario.default_protocol with cd_mode = Store_and_forward } }
    (Cli.apply { Cli.none with store_and_forward = true } cut)

let pattern () =
  let p hotspot hotspot_fraction p_local = { Cli.hotspot; hotspot_fraction; p_local } in
  let with_pattern pattern = { base with Scenario.pattern } in
  check_ok "--hotspot" (with_pattern (Destination.Hotspot { node = 3; fraction = 0.1 }))
    (resolve { Cli.none with pattern = p (Some 3) None None });
  check_ok "--hotspot --hotspot-fraction"
    (with_pattern (Destination.Hotspot { node = 3; fraction = 0.4 }))
    (resolve { Cli.none with pattern = p (Some 3) (Some 0.4) None });
  check_ok "--p-local" (with_pattern (Destination.Local { p_local = 0.6 }))
    (resolve { Cli.none with pattern = p None None (Some 0.6) });
  let hot = with_pattern (Destination.Hotspot { node = 5; fraction = 0.3 }) in
  check_ok "--hotspot-fraction on a hotspot file"
    (with_pattern (Destination.Hotspot { node = 5; fraction = 0.5 }))
    (Cli.apply { Cli.none with pattern = p None (Some 0.5) None } hot);
  check_ok "--hotspot keeps the file's fraction"
    (with_pattern (Destination.Hotspot { node = 9; fraction = 0.3 }))
    (Cli.apply { Cli.none with pattern = p (Some 9) None None } hot);
  check_error "--hotspot-fraction without a hotspot"
    (resolve { Cli.none with pattern = p None (Some 0.5) None });
  check_error "--hotspot with --p-local"
    (resolve { Cli.none with pattern = p (Some 3) None (Some 0.6) })

let r ?precision ?min_reps ?max_reps ?target () = { Cli.precision; min_reps; max_reps; target }

(* What [sweep] and [fig] pass: at the parent [sweep] dropped every
   replication flag and ran the file's rule. *)
let replication_fields () =
  let given o = resolve { Cli.none with replication = o } in
  check_ok "--precision" (with_replication (fun r -> { r with Scenario.target_rel = 0.05 }))
    (given (r ~precision:0.05 ()));
  check_ok "--min-reps" (with_replication (fun r -> { r with Scenario.min_reps = 4 }))
    (given (r ~min_reps:4 ()));
  check_ok "--max-reps" (with_replication (fun r -> { r with Scenario.max_reps = 9 }))
    (given (r ~max_reps:9 ()));
  check_ok "--target" (with_replication (fun r -> { r with Scenario.target = Scenario.Mean }))
    (given (r ~target:Scenario.Mean ()));
  check_ok "--precision 0: one run per point" { base with Scenario.replication = None }
    (given (r ~precision:0. ()));
  check_error "--precision 0 --max-reps" (given (r ~precision:0. ~max_reps:3 ()))

let replication_without_a_section () =
  let bare = { base with Scenario.replication = None } in
  let given o = Cli.apply { Cli.none with replication = o } bare in
  check_ok "--precision creates the rule"
    {
      bare with
      Scenario.replication =
        Some
          {
            Scenario.target_rel = 0.05;
            confidence = 0.95;
            min_reps = 2;
            max_reps = 3;
            target = Scenario.Quantile 0.99;
          };
    }
    (given (r ~precision:0.05 ~max_reps:3 ~target:(Scenario.Quantile 0.99) ()));
  check_error "--target alone" (given (r ~target:(Scenario.Quantile 0.99) ()));
  check_error "--min-reps alone" (given (r ~min_reps:3 ()));
  check_error "--max-reps alone" (given (r ~max_reps:3 ()))

let lambda () =
  check_ok "--lambda pins the load" (Scenario.at base 2e-4)
    (resolve { Cli.none with lambda = Some 2e-4 })

let invalid_result_is_an_error () =
  check_error "validation runs after the flags"
    (resolve { Cli.none with message = { Cli.m_flits = Some 0; flit_bytes = None } })

let () =
  Alcotest.run "cli"
    [
      ( "override",
        [
          Alcotest.test_case "no flag keeps the file" `Quick no_flag_keeps_the_file;
          Alcotest.test_case "system and message" `Quick system_and_message;
          Alcotest.test_case "seed" `Quick seed;
          Alcotest.test_case "sizes keep cd-mode, streaming and seed" `Quick sizes_keep_the_rest;
          Alcotest.test_case "cd-mode" `Quick cd_mode;
          Alcotest.test_case "pattern" `Quick pattern;
          Alcotest.test_case "replication fields" `Quick replication_fields;
          Alcotest.test_case "replication without a section" `Quick
            replication_without_a_section;
          Alcotest.test_case "lambda" `Quick lambda;
          Alcotest.test_case "validation" `Quick invalid_result_is_an_error;
        ] );
    ]

module Params = Fatnet_model.Params
module Variants = Fatnet_model.Variants
module Pattern = Fatnet_model.Pattern
module Eval = Fatnet_model.Eval
module Destination = Fatnet_workload.Destination

(* Version 2 added the replication convergence [target] (mean vs a
   fixed quantile).  Version-1 files still parse — the new field
   defaults to [Mean], which is exactly the v1 semantics — but the
   canonical/hash scheme is prefixed with the version, so the bump
   deliberately invalidates every cached point. *)
let scenario_version = 2

let parseable_versions = [ 1; 2 ]

type cd_mode = Cut_through | Store_and_forward

type protocol = {
  warmup : int;
  measured : int;
  drain : int;
  seed : int64;
  cd_mode : cd_mode;
  streaming : bool;
}

type target = Mean | Quantile of float

type replication = {
  target_rel : float;
  confidence : float;
  min_reps : int;
  max_reps : int;
  target : target;
}

(* The quantile ladder every summary carries
   (Fatnet_stats.Summary.quantiles; duplicated here so the scenario
   layer does not depend on stats). *)
let quantile_levels = [ 0.5; 0.9; 0.99; 0.999 ]

type load = Fixed of float | Linear of { lambda_max : float; steps : int }

type t = {
  name : string;
  title : string;
  system : Params.system;
  message : Params.message;
  variants : Variants.t;
  pattern : Destination.t;
  protocol : protocol;
  replication : replication option;
  load : load;
}

let default_protocol =
  {
    warmup = 10_000;
    measured = 100_000;
    drain = 10_000;
    seed = 0x0F17EE5L;
    cd_mode = Cut_through;
    streaming = true;
  }

let quick_protocol = { default_protocol with warmup = 1_000; measured = 10_000; drain = 1_000 }

(* ---- validation ---- *)

let check name cond msg = if cond then Ok () else Error (name ^ ": " ^ msg)

let check_finite_pos name v =
  check name (Float.is_finite v && v > 0.) "must be finite and positive"

let single_line name s =
  check name (String.trim s = s && not (String.contains s '\n')) "must be a single trimmed line"

let validate t =
  let ( let* ) = Result.bind in
  let* () = single_line "name" t.name in
  let* () = single_line "title" t.title in
  let* () = Result.map_error (fun e -> "system: " ^ e) (Params.validate t.system) in
  let* () = check "message.flits" (t.message.Params.length_flits >= 1) "must be >= 1" in
  let* () = check_finite_pos "message.flit-bytes" t.message.Params.flit_bytes in
  let* () =
    match t.pattern with
    | Destination.Uniform -> Ok ()
    | Destination.Hotspot { node; fraction } ->
        let n = Params.total_nodes t.system in
        let* () =
          check "pattern.hotspot.node"
            (node >= 0 && node < n)
            (Printf.sprintf "must be a node id in [0, %d)" n)
        in
        check "pattern.hotspot.fraction" (fraction >= 0. && fraction <= 1.) "must be in [0, 1]"
    | Destination.Local { p_local } ->
        check "pattern.local" (p_local >= 0. && p_local <= 1.) "must be in [0, 1]"
  in
  let* () = check "protocol.warmup" (t.protocol.warmup >= 0) "must be >= 0" in
  let* () = check "protocol.measured" (t.protocol.measured >= 1) "must be >= 1" in
  let* () = check "protocol.drain" (t.protocol.drain >= 0) "must be >= 0" in
  let* () =
    match t.replication with
    | None -> Ok ()
    | Some r ->
        let* () = check_finite_pos "replication.target-rel" r.target_rel in
        let* () =
          check "replication.confidence" (r.confidence > 0. && r.confidence < 1.)
            "must be in (0, 1)"
        in
        let* () = check "replication.min-reps" (r.min_reps >= 1) "must be >= 1" in
        let* () = check "replication.max-reps" (r.max_reps >= r.min_reps) "must be >= min-reps" in
        (match r.target with
        | Mean -> Ok ()
        | Quantile q ->
            check "replication.target"
              (List.mem q quantile_levels)
              "quantile must be one of 0.5, 0.9, 0.99, 0.999")
  in
  match t.load with
  | Fixed l -> check_finite_pos "load.fixed" l
  | Linear { lambda_max; steps } ->
      let* () = check_finite_pos "load.linear" lambda_max in
      check "load.linear.steps" (steps >= 1) "must be >= 1"

let validate_exn t =
  match validate t with Ok () -> () | Error msg -> invalid_arg ("Scenario: " ^ msg)

let make ?(name = "") ?(title = "") ?(variants = Variants.default)
    ?(pattern = Destination.Uniform) ?(protocol = default_protocol) ?replication ~system
    ~message ~load () =
  let t = { name; title; system; message; variants; pattern; protocol; replication; load } in
  validate_exn t;
  t

(* ---- load axis ---- *)

let lambdas t =
  match t.load with
  | Fixed l -> [ l ]
  | Linear { lambda_max; steps } ->
      List.init steps (fun i -> lambda_max *. float_of_int (i + 1) /. float_of_int steps)

let at t lambda_g = { t with load = Fixed lambda_g }

let points t = List.map (at t) (lambdas t)

let fixed_lambda t = match t.load with Fixed l -> Some l | Linear _ -> None

let require_lambda ?lambda_g t =
  match (lambda_g, t.load) with
  | Some l, _ -> l
  | None, Fixed l -> l
  | None, Linear _ ->
      invalid_arg "Scenario: lambda_g is required when the load axis is a sweep"

(* ---- the analytical model ---- *)

let model_pattern t =
  match t.pattern with
  (* Hotspot traffic breaks the symmetry the closed form needs (see
     Pattern); the uniform reading is the model's best statement. *)
  | Destination.Uniform | Destination.Hotspot _ -> Pattern.Uniform
  | Destination.Local { p_local } -> Pattern.Local { p_local }

let evaluator t =
  let pattern = model_pattern t in
  let outgoing cluster =
    Pattern.outgoing_probability pattern ~system:t.system ~cluster
  in
  Eval.workspace ~variants:t.variants ~outgoing ~system:t.system ~message:t.message ()

let saturation_rate ?state t = Eval.saturation_rate ?state (evaluator t)

(* ---- text codec ----

   Line-based `key value...` format with [section] headers, full-line
   `#` comments, and a versioned first line.  The printer is
   canonical: floats render in the shortest decimal form that parses
   back to the same IEEE-754 value, equal consecutive clusters group
   into one `cluster*K` line, and every section is written even when
   it holds defaults — so parse(print(t)) = t exactly. *)

let float_str f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let bool_str b = if b then "on" else "off"

let net_str (n : Params.network) =
  Printf.sprintf "%s %s %s" (float_str n.Params.bandwidth) (float_str n.Params.network_latency)
    (float_str n.Params.switch_latency)

let to_string t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "scenario %d" scenario_version;
  if t.name <> "" then line "name %s" t.name;
  if t.title <> "" then line "title %s" t.title;
  line "";
  line "[system]";
  line "m %d" t.system.Params.m;
  line "icn2-depth %d" t.system.Params.icn2_depth;
  line "icn2 %s" (net_str t.system.Params.icn2);
  let clusters = Array.to_list t.system.Params.clusters in
  let rec group = function
    | [] -> ()
    | c :: rest ->
        let rec split acc = function
          | x :: tl when x = c -> split (acc + 1) tl
          | tl -> (acc, tl)
        in
        let count, rest = split 1 rest in
        let star = if count = 1 then "cluster" else Printf.sprintf "cluster*%d" count in
        line "%s depth %d icn1 %s ecn1 %s" star c.Params.tree_depth (net_str c.Params.icn1)
          (net_str c.Params.ecn1);
        group rest
  in
  group clusters;
  line "";
  line "[message]";
  line "flits %d" t.message.Params.length_flits;
  line "flit-bytes %s" (float_str t.message.Params.flit_bytes);
  line "";
  line "[variants]";
  line "lambda-i2 %s"
    (match t.variants.Variants.lambda_i2 with
    | Variants.Pair_average -> "pair-average"
    | Variants.Size_scaled -> "size-scaled");
  line "source-variance %s"
    (match t.variants.Variants.source_variance with
    | Variants.Draper_ghosh -> "draper-ghosh"
    | Variants.Zero -> "zero");
  line "source-rate %s"
    (match t.variants.Variants.source_rate with
    | Variants.Per_node -> "per-node"
    | Variants.Network_total -> "network-total");
  line "relaxing-factor %s" (bool_str t.variants.Variants.use_relaxing_factor);
  line "";
  line "[pattern]";
  (match t.pattern with
  | Destination.Uniform -> line "uniform"
  | Destination.Hotspot { node; fraction } -> line "hotspot %d %s" node (float_str fraction)
  | Destination.Local { p_local } -> line "local %s" (float_str p_local));
  line "";
  line "[protocol]";
  line "warmup %d" t.protocol.warmup;
  line "measured %d" t.protocol.measured;
  line "drain %d" t.protocol.drain;
  line "seed 0x%Lx" t.protocol.seed;
  line "cd-mode %s"
    (match t.protocol.cd_mode with
    | Cut_through -> "cut-through"
    | Store_and_forward -> "store-and-forward");
  line "streaming %s" (bool_str t.protocol.streaming);
  (match t.replication with
  | None -> ()
  | Some r ->
      line "";
      line "[replication]";
      line "target-rel %s" (float_str r.target_rel);
      line "confidence %s" (float_str r.confidence);
      line "min-reps %d" r.min_reps;
      line "max-reps %d" r.max_reps;
      line "target %s"
        (match r.target with
        | Mean -> "mean"
        | Quantile q -> Printf.sprintf "quantile %s" (float_str q)));
  line "";
  line "[load]";
  (match t.load with
  | Fixed l -> line "fixed %s" (float_str l)
  | Linear { lambda_max; steps } -> line "linear %s %d" (float_str lambda_max) steps);
  Buffer.contents b

(* ---- parsing ---- *)

type partial = {
  mutable p_name : string;
  mutable p_title : string;
  mutable p_m : int option;
  mutable p_icn2_depth : int option;
  mutable p_icn2 : Params.network option;
  mutable p_clusters : Params.cluster list;  (* reversed *)
  mutable p_flits : int option;
  mutable p_flit_bytes : float option;
  mutable p_variants : Variants.t;
  mutable p_pattern : Destination.t;
  mutable p_protocol : protocol;
  mutable p_replication : replication option;
  mutable p_load : load option;
}

let of_string text =
  let ( let* ) = Result.bind in
  let p =
    {
      p_name = "";
      p_title = "";
      p_m = None;
      p_icn2_depth = None;
      p_icn2 = None;
      p_clusters = [];
      p_flits = None;
      p_flit_bytes = None;
      p_variants = Variants.default;
      p_pattern = Destination.Uniform;
      p_protocol = default_protocol;
      p_replication = None;
      p_load = None;
    }
  in
  let lines = String.split_on_char '\n' text in
  let err ln fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" ln s)) fmt in
  let parse_float ln field s =
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> err ln "%s: expected a number, got %S" field s
  in
  let parse_int ln field s =
    match int_of_string_opt s with
    | Some i -> Ok i
    | None -> err ln "%s: expected an integer, got %S" field s
  in
  let parse_bool ln field s =
    match String.lowercase_ascii s with
    | "on" | "true" | "yes" -> Ok true
    | "off" | "false" | "no" -> Ok false
    | _ -> err ln "%s: expected on/off, got %S" field s
  in
  let parse_net ln field = function
    | [ bw; an; als ] ->
        let* bandwidth = parse_float ln (field ^ ".bandwidth") bw in
        let* network_latency = parse_float ln (field ^ ".network-latency") an in
        let* switch_latency = parse_float ln (field ^ ".switch-latency") als in
        Ok { Params.bandwidth; network_latency; switch_latency }
    | toks ->
        err ln "%s: expected `bandwidth network-latency switch-latency`, got %d token%s" field
          (List.length toks)
          (if List.length toks = 1 then "" else "s")
  in
  let split_ws s =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun x -> x <> "")
  in
  let rest_after_key line =
    match String.index_opt line ' ' with
    | None -> ""
    | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  in
  let rec go section saw_header ln = function
    | [] ->
        if not saw_header then Error "empty input: expected a `scenario N` header"
        else Ok ()
    | raw :: rest -> (
        let line = String.trim raw in
        if line = "" || line.[0] = '#' then go section saw_header (ln + 1) rest
        else if not saw_header then
          match split_ws line with
          | [ "scenario"; v ] -> (
              let* v = parse_int ln "scenario" v in
              if List.mem v parseable_versions then go section true (ln + 1) rest
              else
                err ln "unsupported scenario version %d (this build reads versions %s)" v
                  (String.concat ", " (List.map string_of_int parseable_versions)))
          | _ -> err ln "expected a `scenario %d` header, got %S" scenario_version line
        else if line.[0] = '[' then
          match line with
          | "[system]" | "[message]" | "[variants]" | "[pattern]" | "[protocol]"
          | "[replication]" | "[load]" ->
              (if line = "[replication]" && p.p_replication = None then
                 p.p_replication <-
                   Some
                     {
                       target_rel = 0.05;
                       confidence = 0.95;
                       min_reps = 2;
                       max_reps = 8;
                       target = Mean;
                     });
              go line saw_header (ln + 1) rest
          | _ -> err ln "unknown section %s" line
        else
          let toks = split_ws line in
          let key = List.hd toks in
          let args = List.tl toks in
          let one field =
            match args with
            | [ v ] -> Ok v
            | _ -> err ln "%s: expected exactly one value" field
          in
          let* () =
            match (section, key) with
            | "", "name" ->
                p.p_name <- rest_after_key line;
                Ok ()
            | "", "title" ->
                p.p_title <- rest_after_key line;
                Ok ()
            | "[system]", "m" ->
                let* v = one "m" in
                let* m = parse_int ln "m" v in
                p.p_m <- Some m;
                Ok ()
            | "[system]", "icn2-depth" ->
                let* v = one "icn2-depth" in
                let* d = parse_int ln "icn2-depth" v in
                p.p_icn2_depth <- Some d;
                Ok ()
            | "[system]", "icn2" ->
                let* n = parse_net ln "icn2" args in
                p.p_icn2 <- Some n;
                Ok ()
            | "[system]", _ when key = "cluster" || String.length key > 8
                                                     && String.sub key 0 8 = "cluster*" -> (
                let* count =
                  if key = "cluster" then Ok 1
                  else
                    parse_int ln "cluster count"
                      (String.sub key 8 (String.length key - 8))
                in
                let* () = check "cluster count" (count >= 1) "must be >= 1"
                          |> Result.map_error (Printf.sprintf "line %d: %s" ln) in
                match args with
                | "depth" :: d :: "icn1" :: b1 :: a1 :: s1 :: "ecn1" :: b2 :: a2 :: s2 :: []
                  ->
                    let* tree_depth = parse_int ln "cluster.depth" d in
                    let* icn1 = parse_net ln "cluster.icn1" [ b1; a1; s1 ] in
                    let* ecn1 = parse_net ln "cluster.ecn1" [ b2; a2; s2 ] in
                    let c = { Params.tree_depth; icn1; ecn1 } in
                    for _ = 1 to count do
                      p.p_clusters <- c :: p.p_clusters
                    done;
                    Ok ()
                | _ ->
                    err ln
                      "cluster: expected `cluster[*K] depth D icn1 BW AN AS ecn1 BW AN AS`")
            | "[message]", "flits" ->
                let* v = one "flits" in
                let* f = parse_int ln "flits" v in
                p.p_flits <- Some f;
                Ok ()
            | "[message]", "flit-bytes" ->
                let* v = one "flit-bytes" in
                let* f = parse_float ln "flit-bytes" v in
                p.p_flit_bytes <- Some f;
                Ok ()
            | "[variants]", "lambda-i2" -> (
                let* v = one "lambda-i2" in
                match v with
                | "pair-average" ->
                    p.p_variants <- { p.p_variants with Variants.lambda_i2 = Variants.Pair_average };
                    Ok ()
                | "size-scaled" ->
                    p.p_variants <- { p.p_variants with Variants.lambda_i2 = Variants.Size_scaled };
                    Ok ()
                | _ -> err ln "lambda-i2: expected pair-average or size-scaled, got %S" v)
            | "[variants]", "source-variance" -> (
                let* v = one "source-variance" in
                match v with
                | "draper-ghosh" ->
                    p.p_variants <-
                      { p.p_variants with Variants.source_variance = Variants.Draper_ghosh };
                    Ok ()
                | "zero" ->
                    p.p_variants <- { p.p_variants with Variants.source_variance = Variants.Zero };
                    Ok ()
                | _ -> err ln "source-variance: expected draper-ghosh or zero, got %S" v)
            | "[variants]", "source-rate" -> (
                let* v = one "source-rate" in
                match v with
                | "per-node" ->
                    p.p_variants <- { p.p_variants with Variants.source_rate = Variants.Per_node };
                    Ok ()
                | "network-total" ->
                    p.p_variants <-
                      { p.p_variants with Variants.source_rate = Variants.Network_total };
                    Ok ()
                | _ -> err ln "source-rate: expected per-node or network-total, got %S" v)
            | "[variants]", "relaxing-factor" ->
                let* v = one "relaxing-factor" in
                let* b = parse_bool ln "relaxing-factor" v in
                p.p_variants <- { p.p_variants with Variants.use_relaxing_factor = b };
                Ok ()
            | "[pattern]", "uniform" ->
                p.p_pattern <- Destination.Uniform;
                Ok ()
            | "[pattern]", "hotspot" -> (
                match args with
                | [ node; fraction ] ->
                    let* node = parse_int ln "hotspot.node" node in
                    let* fraction = parse_float ln "hotspot.fraction" fraction in
                    p.p_pattern <- Destination.Hotspot { node; fraction };
                    Ok ()
                | _ -> err ln "hotspot: expected `hotspot NODE FRACTION`")
            | "[pattern]", "local" ->
                let* v = one "local" in
                let* p_local = parse_float ln "local" v in
                p.p_pattern <- Destination.Local { p_local };
                Ok ()
            | "[protocol]", "warmup" ->
                let* v = one "warmup" in
                let* i = parse_int ln "warmup" v in
                p.p_protocol <- { p.p_protocol with warmup = i };
                Ok ()
            | "[protocol]", "measured" ->
                let* v = one "measured" in
                let* i = parse_int ln "measured" v in
                p.p_protocol <- { p.p_protocol with measured = i };
                Ok ()
            | "[protocol]", "drain" ->
                let* v = one "drain" in
                let* i = parse_int ln "drain" v in
                p.p_protocol <- { p.p_protocol with drain = i };
                Ok ()
            | "[protocol]", "seed" -> (
                let* v = one "seed" in
                match Int64.of_string_opt v with
                | Some s ->
                    p.p_protocol <- { p.p_protocol with seed = s };
                    Ok ()
                | None -> err ln "seed: expected an integer (decimal or 0x hex), got %S" v)
            | "[protocol]", "cd-mode" -> (
                let* v = one "cd-mode" in
                match v with
                | "cut-through" ->
                    p.p_protocol <- { p.p_protocol with cd_mode = Cut_through };
                    Ok ()
                | "store-and-forward" ->
                    p.p_protocol <- { p.p_protocol with cd_mode = Store_and_forward };
                    Ok ()
                | _ -> err ln "cd-mode: expected cut-through or store-and-forward, got %S" v)
            | "[protocol]", "streaming" ->
                let* v = one "streaming" in
                let* b = parse_bool ln "streaming" v in
                p.p_protocol <- { p.p_protocol with streaming = b };
                Ok ()
            | "[replication]", "target-rel" ->
                let* v = one "target-rel" in
                let* f = parse_float ln "target-rel" v in
                p.p_replication <-
                  Some { (Option.get p.p_replication) with target_rel = f };
                Ok ()
            | "[replication]", "confidence" ->
                let* v = one "confidence" in
                let* f = parse_float ln "confidence" v in
                p.p_replication <-
                  Some { (Option.get p.p_replication) with confidence = f };
                Ok ()
            | "[replication]", "min-reps" ->
                let* v = one "min-reps" in
                let* i = parse_int ln "min-reps" v in
                p.p_replication <- Some { (Option.get p.p_replication) with min_reps = i };
                Ok ()
            | "[replication]", "max-reps" ->
                let* v = one "max-reps" in
                let* i = parse_int ln "max-reps" v in
                p.p_replication <- Some { (Option.get p.p_replication) with max_reps = i };
                Ok ()
            | "[replication]", "target" -> (
                match args with
                | [ "mean" ] ->
                    p.p_replication <- Some { (Option.get p.p_replication) with target = Mean };
                    Ok ()
                | [ "quantile"; q ] ->
                    let* q = parse_float ln "target.quantile" q in
                    p.p_replication <-
                      Some { (Option.get p.p_replication) with target = Quantile q };
                    Ok ()
                | _ -> err ln "target: expected `target mean` or `target quantile Q`")
            | "[load]", "fixed" ->
                let* v = one "fixed" in
                let* l = parse_float ln "fixed" v in
                p.p_load <- Some (Fixed l);
                Ok ()
            | "[load]", "linear" -> (
                match args with
                | [ lm; steps ] ->
                    let* lambda_max = parse_float ln "linear.lambda-max" lm in
                    let* steps = parse_int ln "linear.steps" steps in
                    p.p_load <- Some (Linear { lambda_max; steps });
                    Ok ()
                | _ -> err ln "linear: expected `linear LAMBDA_MAX STEPS`")
            | "", _ -> err ln "unknown key %S (before any [section])" key
            | _, _ -> err ln "unknown key %S in %s" key section
          in
          go section saw_header (ln + 1) rest)
  in
  let* () = go "" false 1 lines in
  let require field = function Some v -> Ok v | None -> Error ("missing " ^ field) in
  let* m = require "[system] m" p.p_m in
  let* icn2 = require "[system] icn2" p.p_icn2 in
  let* () = if p.p_clusters = [] then Error "missing [system] cluster lines" else Ok () in
  let clusters = Array.of_list (List.rev p.p_clusters) in
  let* icn2_depth =
    match p.p_icn2_depth with
    | Some d -> Ok d
    | None -> (
        let c = Array.length clusters in
        if c = 1 then Ok 1
        else
          match Params.icn2_depth_for ~m ~clusters:c with
          | Some d -> Ok d
          | None ->
              Error
                (Printf.sprintf
                   "[system] icn2-depth: no n_c satisfies C = 2*(m/2)^n_c for C = %d, m = %d \
                    (give icn2-depth explicitly or fix the cluster count)"
                   c m))
  in
  let* length_flits = require "[message] flits" p.p_flits in
  let* flit_bytes = require "[message] flit-bytes" p.p_flit_bytes in
  let* load = require "[load]" p.p_load in
  Ok
    {
      name = p.p_name;
      title = p.p_title;
      system = { Params.m; clusters; icn2; icn2_depth };
      message = { Params.length_flits; flit_bytes };
      variants = p.p_variants;
      pattern = p.p_pattern;
      protocol = p.p_protocol;
      replication = p.p_replication;
      load;
    }

let save ~path t =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string t))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match of_string text with
      | Error e -> Error (path ^ ": " ^ e)
      | Ok t -> (
          match validate t with Ok () -> Ok t | Error e -> Error (path ^ ": " ^ e)))

(* ---- canonical identity ----

   Floats render as the hex of their IEEE-754 bits: exact,
   platform-independent, and collision-free under rounding.  The
   name/title labels are deliberately excluded so relabeling never
   invalidates cached results. *)

let fbits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

let net_c (n : Params.network) =
  Printf.sprintf "%s,%s,%s" (fbits n.Params.bandwidth) (fbits n.Params.network_latency)
    (fbits n.Params.switch_latency)

let canonical t =
  let cluster_c (c : Params.cluster) =
    Printf.sprintf "%d:%s:%s" c.Params.tree_depth (net_c c.Params.icn1) (net_c c.Params.ecn1)
  in
  let sys =
    Printf.sprintf "m=%d;nc=%d;icn2=%s;cl=[%s]" t.system.Params.m t.system.Params.icn2_depth
      (net_c t.system.Params.icn2)
      (String.concat "|"
         (Array.to_list (Array.map cluster_c t.system.Params.clusters)))
  in
  let msg =
    Printf.sprintf "M=%d;dm=%s" t.message.Params.length_flits (fbits t.message.Params.flit_bytes)
  in
  let var =
    Printf.sprintf "i2=%s;sv=%s;sr=%s;rf=%b"
      (match t.variants.Variants.lambda_i2 with
      | Variants.Pair_average -> "pa"
      | Variants.Size_scaled -> "ss")
      (match t.variants.Variants.source_variance with
      | Variants.Draper_ghosh -> "dg"
      | Variants.Zero -> "z")
      (match t.variants.Variants.source_rate with
      | Variants.Per_node -> "pn"
      | Variants.Network_total -> "nt")
      t.variants.Variants.use_relaxing_factor
  in
  let pat =
    match t.pattern with
    | Destination.Uniform -> "u"
    | Destination.Hotspot { node; fraction } -> Printf.sprintf "h:%d,%s" node (fbits fraction)
    | Destination.Local { p_local } -> Printf.sprintf "l:%s" (fbits p_local)
  in
  let proto =
    Printf.sprintf "w=%d;me=%d;dr=%d;seed=%Lx;cd=%s;st=%b" t.protocol.warmup
      t.protocol.measured t.protocol.drain t.protocol.seed
      (match t.protocol.cd_mode with Cut_through -> "ct" | Store_and_forward -> "sf")
      t.protocol.streaming
  in
  let rep =
    match t.replication with
    | None -> "none"
    | Some r ->
        Printf.sprintf "%s,%s,%d,%d,%s" (fbits r.target_rel) (fbits r.confidence) r.min_reps
          r.max_reps
          (match r.target with Mean -> "m" | Quantile q -> "q:" ^ fbits q)
  in
  let load =
    match t.load with
    | Fixed l -> Printf.sprintf "f:%s" (fbits l)
    | Linear { lambda_max; steps } -> Printf.sprintf "l:%s,%d" (fbits lambda_max) steps
  in
  Printf.sprintf "sys{%s};msg{%s};var{%s};pat{%s};proto{%s};rep{%s};load{%s}" sys msg var pat
    proto rep load

let hash t =
  Digest.to_hex
    (Digest.string (Printf.sprintf "fatnet-scenario v%d;%s" scenario_version (canonical t)))

(* The model-memo key: the canonical hash with the load axis
   normalised away, because the memo keys λ separately by its IEEE-754
   bits — [at t λ] points of one scenario must share entries.  The
   sim-only fields (protocol, replication) stay in the key; that only
   splits entries between scenarios that could have shared, never
   aliases two different model inputs. *)
let memo_key t = hash { t with load = Fixed 0. }

let pp ppf t =
  Format.fprintf ppf "%s: N=%d C=%d m=%d M=%d dm=%g %s"
    (if t.name = "" then "(unnamed)" else t.name)
    (Params.total_nodes t.system) (Params.cluster_count t.system) t.system.Params.m
    t.message.Params.length_flits t.message.Params.flit_bytes
    (match t.load with
    | Fixed l -> Printf.sprintf "lambda=%g" l
    | Linear { lambda_max; steps } -> Printf.sprintf "sweep<=%g (%d steps)" lambda_max steps)

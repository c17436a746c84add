(* The latency-oracle daemon: protocol parsing, the determinism
   contract (answers are a pure function of (scenario, query) —
   bit-identical across batch order, batch splitting, domain count
   and memo history), and the socket edge end to end. *)

module Json = Fatnet_obs.Json
module Metrics = Fatnet_obs.Metrics
module Eval = Fatnet_model.Eval
module Presets = Fatnet_model.Presets
module Scenario = Fatnet_scenario.Scenario
module Protocol = Fatnet_serve.Protocol
module Oracle = Fatnet_serve.Oracle
module Server = Fatnet_serve.Server

let message = Presets.message ~m_flits:32 ~d_m_bytes:256.

let small_system =
  Fatnet_model.Params.homogeneous ~m:4 ~tree_depth:2 ~clusters:4 ~icn1:Presets.net1
    ~ecn1:Presets.net2 ~icn2:Presets.net1

let scenario =
  Scenario.make ~name:"serve-test" ~system:small_system ~message
    ~load:(Scenario.Fixed 1e-4) ()

let saturation = lazy (Eval.saturation_rate (Scenario.evaluator scenario))

(* --- protocol ------------------------------------------------------ *)

let parse_one line =
  match Protocol.frame_of_line line with
  | Ok (Protocol.Single p) -> p
  | Ok (Protocol.Batch _) -> Alcotest.fail "expected a single frame"
  | Error e -> Alcotest.failf "frame rejected: %s" e

let protocol_parses_good_requests () =
  (match parse_one {|{"id": 7, "op": "latency", "lambda": 2e-5}|} with
  | Protocol.Req { id = Json.Num 7.; query = Protocol.Latency { lambda = 2e-5 } } -> ()
  | _ -> Alcotest.fail "latency request mis-parsed");
  (match parse_one {|{"lambda": 3e-5}|} with
  | Protocol.Req { id = Json.Null; query = Protocol.Latency { lambda = 3e-5 } } -> ()
  | _ -> Alcotest.fail "op should default to latency, id to null");
  (match parse_one {|{"op": "quantile", "lambda": 1e-5, "q": 0.99}|} with
  | Protocol.Req { query = Protocol.Quantile { lambda = 1e-5; q = 0.99 }; _ } -> ()
  | _ -> Alcotest.fail "quantile request mis-parsed");
  (match parse_one {|{"op": "saturation", "id": "tag"}|} with
  | Protocol.Req { id = Json.Str "tag"; query = Protocol.Saturation } -> ()
  | _ -> Alcotest.fail "saturation request mis-parsed");
  (match parse_one {|{"op": "point", "lambda": 5e-5}|} with
  | Protocol.Req { query = Protocol.Point { lambda = 5e-5 }; _ } -> ()
  | _ -> Alcotest.fail "point request mis-parsed");
  match Protocol.frame_of_line {|[{"lambda": 1e-5}, {"op": "saturation"}]|} with
  | Ok (Protocol.Batch [ Protocol.Req _; Protocol.Req _ ]) -> ()
  | _ -> Alcotest.fail "array line should parse as a batch"

let protocol_rejects_bad_requests () =
  let malformed line =
    match parse_one line with
    | Protocol.Malformed (_, msg) -> msg
    | Protocol.Req _ -> Alcotest.failf "accepted %s" line
  in
  let contains hay needle =
    let n = String.length needle and l = String.length hay in
    let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let check_contains line msg needle =
    Alcotest.(check bool)
      (Printf.sprintf "%s -> %S mentions %S" line msg needle)
      true (contains msg needle)
  in
  let check line needle = check_contains line (malformed line) needle in
  check {|{"op": "latency"}|} "lambda";
  check {|{"op": "latency", "lambda": "fast"}|} "lambda";
  check {|{"op": "latency", "lambda": -1e-5}|} "lambda";
  check {|{"op": "quantile", "lambda": 1e-5}|} "q";
  check {|{"op": "quantile", "lambda": 1e-5, "q": 1.5}|} "q";
  check {|{"op": "warp", "lambda": 1e-5}|} "op";
  check {|42|} "object";
  (* A malformed element keeps its slot in a batch, and its id. *)
  (match Protocol.frame_of_line {|[{"lambda": 1e-5}, {"id": 3, "op": "warp"}]|} with
  | Ok (Protocol.Batch [ Protocol.Req _; Protocol.Malformed (Json.Num 3., _) ]) -> ()
  | _ -> Alcotest.fail "batch should keep the malformed slot with its id");
  (* Invalid JSON is rejected at the frame level. *)
  (match Protocol.frame_of_line "{ not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid JSON accepted");
  (* A \u escape takes exactly four hex digits: a short one or one
     with an underscore is an error naming its offset, never an
     exception. *)
  List.iter
    (fun line ->
      match Protocol.frame_of_line line with
      | Error msg -> check_contains line msg "offset"
      | Ok _ -> Alcotest.failf "accepted %s" line
      | exception e -> Alcotest.failf "%s raised %s" line (Printexc.to_string e))
    [ {|{"op":"\u12"}|}; {|{"op":"\u1_23"}|}; {|{"op":"\u"}|} ];
  match Protocol.frame_of_line {|{"op":"\u0073aturation"}|} with
  | Ok (Protocol.Single (Protocol.Req _)) -> ()
  | _ -> Alcotest.fail "a four-digit \\u escape should decode"

let response_lines_roundtrip () =
  let b = Buffer.create 256 in
  Protocol.buf_add_frame_responses b ~batched:false
    [| { Protocol.rid = Json.Num 7.; outcome = Ok ("latency", Protocol.Value 1.5e-4) } |];
  let line = Buffer.contents b in
  Alcotest.(check bool) "ends with newline" true (String.length line > 0 && line.[String.length line - 1] = '\n');
  (match Json.parse (String.trim line) with
  | Json.Obj _ as j ->
      Alcotest.(check bool) "ok true" true (Json.member "ok" j = Some (Json.Bool true));
      Alcotest.(check bool) "id echoed" true (Json.member "id" j = Some (Json.Num 7.));
      (match Json.member "value" j with
      | Some (Json.Num v) ->
          Alcotest.(check bool) "value bits survive the wire" true
            (Int64.bits_of_float v = Int64.bits_of_float 1.5e-4)
      | _ -> Alcotest.fail "value missing");
      Alcotest.(check bool) "saturated flag" true
        (Json.member "saturated" j = Some (Json.Bool false))
  | _ -> Alcotest.fail "not an object");
  (* Non-finite values are the tagged strings, flagged saturated. *)
  Buffer.clear b;
  Protocol.buf_add_response b
    { Protocol.rid = Json.Null; outcome = Ok ("latency", Protocol.Value infinity) };
  let j = Json.parse (Buffer.contents b) in
  Alcotest.(check bool) "inf tagged" true (Json.member "value" j = Some (Json.Str "inf"));
  Alcotest.(check bool) "inf saturated" true
    (Json.member "saturated" j = Some (Json.Bool true));
  (* An error line parses and carries the message. *)
  match Json.parse (String.trim (Protocol.error_line "bad frame")) with
  | j ->
      Alcotest.(check bool) "ok false" true (Json.member "ok" j = Some (Json.Bool false));
      Alcotest.(check bool) "error text" true
        (Json.member "error" j = Some (Json.Str "bad frame"))

(* --- determinism --------------------------------------------------- *)

let value_of (r : Protocol.response) =
  match r.Protocol.outcome with
  | Ok (_, Protocol.Value v) -> v
  | Ok (op, _) -> Alcotest.failf "unexpected non-value reply for %s" op
  | Error e -> Alcotest.failf "unexpected error reply: %s" e

let reference_answers reqs =
  let ws = Scenario.evaluator scenario in
  let sat = Lazy.force saturation in
  Array.map
    (fun p ->
      match p with
      | Protocol.Req { query = Protocol.Latency { lambda }; _ } ->
          Eval.mean_into ws ~lambda_g:lambda
      | Protocol.Req { query = Protocol.Quantile { lambda; q }; _ } ->
          Eval.quantile ws ~lambda_g:lambda ~q
      | Protocol.Req { query = Protocol.Saturation; _ } -> sat
      | _ -> Alcotest.fail "reference_answers: unsupported request")
    reqs

let daemon_matches_direct_eval () =
  (* The pinned contract: a long-lived oracle, whatever its memo
     history, answers exactly the bits a fresh sequential Eval
     produces. *)
  let sat = Lazy.force saturation in
  let reqs =
    Array.init 24 (fun i ->
        let lambda = 0.9 *. sat *. float_of_int (1 + (i mod 8)) /. 8. in
        let query =
          match i mod 3 with
          | 0 -> Protocol.Latency { lambda }
          | 1 -> Protocol.Quantile { lambda; q = 0.99 }
          | _ -> Protocol.Saturation
        in
        Protocol.Req { Protocol.id = Json.Num (float_of_int i); query })
  in
  let expected = reference_answers reqs in
  let oracle = Oracle.create ~domains:2 scenario in
  Fun.protect ~finally:(fun () -> Oracle.shutdown oracle) @@ fun () ->
  (* Twice: the second pass answers from a warm memo. *)
  for pass = 1 to 2 do
    let got = Oracle.answer_batch oracle reqs in
    Array.iteri
      (fun i r ->
        Alcotest.(check bool)
          (Printf.sprintf "pass %d request %d bit-identical" pass i)
          true
          (Int64.bits_of_float (value_of r) = Int64.bits_of_float expected.(i)))
      got
  done

let qcheck_batches_bit_identical =
  (* Random request streams, shuffled, split into random batch sizes,
     answered by oracles with different domain counts and memo
     histories: every answer must carry exactly the reference bits. *)
  let open QCheck in
  let gen_req =
    let open Gen in
    let* kind = int_bound 9 in
    let* slot = int_bound 15 in
    let lambda = 1e-5 *. float_of_int (1 + slot) in
    return
      (Protocol.Req
         {
           Protocol.id = Json.Num (float_of_int slot);
           query =
             (if kind = 0 then Protocol.Saturation
              else if kind <= 2 then Protocol.Quantile { lambda; q = 0.9 }
              else Protocol.Latency { lambda });
         })
  in
  let arb =
    make
      Gen.(
        let* reqs = array_size (int_range 1 40) gen_req in
        let* domains = int_range 1 3 in
        let* splits = list_size (int_range 0 6) (int_range 1 10) in
        return (reqs, domains, splits))
  in
  Test.make ~name:"serve answers are bit-identical across batching" ~count:30 arb
    (fun (reqs, domains, splits) ->
      let expected = reference_answers reqs in
      let oracle = Oracle.create ~domains scenario in
      Fun.protect ~finally:(fun () -> Oracle.shutdown oracle) @@ fun () ->
      let check got =
        Array.iteri
          (fun i r ->
            if Int64.bits_of_float (value_of r) <> Int64.bits_of_float expected.(i)
            then
              QCheck.Test.fail_reportf "request %d: %h <> %h" i (value_of r)
                expected.(i))
          got
      in
      (* One big batch first (cold memo), then the same stream split
         into arbitrary chunk sizes (warm memo, different dispatch
         shapes). *)
      check (Oracle.answer_batch oracle reqs);
      let n = Array.length reqs in
      let pos = ref 0 and splits = ref (if splits = [] then [ 7 ] else splits) in
      let buf = Buffer.create 64 in
      ignore buf;
      let answers = Array.make n None in
      while !pos < n do
        let k =
          match !splits with
          | [] -> n - !pos
          | k :: rest ->
              splits := rest @ [ k ];
              min k (n - !pos)
        in
        let got = Oracle.answer_batch oracle (Array.sub reqs !pos k) in
        Array.iteri (fun i r -> answers.(!pos + i) <- Some r) got;
        pos := !pos + k
      done;
      check (Array.map Option.get answers);
      true)

let request_counts_exact () =
  (* The oracle holds its request counters per pool slot and ambient
     registry, and the memo its hit/miss counters per domain: every
     count must still come out exact, pool workers' registries
     (fresh per map, absorbed after it) included. *)
  let metrics = Metrics.create () in
  let oracle = Oracle.create ~domains:2 ~metrics scenario in
  Fun.protect ~finally:(fun () -> Oracle.shutdown oracle) @@ fun () ->
  let sat = Lazy.force saturation in
  let reqs =
    Array.init 40 (fun i ->
        let lambda = 0.9 *. sat *. float_of_int (1 + (i mod 10)) /. 10. in
        let req query = Protocol.Req { Protocol.id = Json.Null; query } in
        match i mod 4 with
        | 0 -> req (Protocol.Latency { lambda })
        | 1 -> req (Protocol.Quantile { lambda; q = 0.99 })
        | 2 -> req (Protocol.Point { lambda }) (* no cache configured: an error *)
        | _ -> Protocol.Malformed (Json.Null, "bad request"))
  in
  for _ = 1 to 3 do
    ignore (Oracle.answer_batch oracle reqs)
  done;
  let snap = Metrics.snapshot metrics in
  let count ?labels name =
    match Metrics.Snapshot.find ?labels snap name with
    | Some (Metrics.Snapshot.Counter n) -> Some n
    | _ -> None
  in
  let requests op outcome =
    count ~labels:[ ("op", op); ("outcome", outcome) ] "serve_requests_total"
  in
  let check name want got = Alcotest.(check (option int)) name want got in
  check "latency ok" (Some 30) (requests "latency" "ok");
  check "quantile ok" (Some 30) (requests "quantile" "ok");
  check "point error" (Some 30) (requests "point" "error");
  check "invalid error" (Some 30) (requests "invalid" "error");
  check "no series for an op never answered" None (requests "saturation" "ok");
  let memo = Oracle.memo oracle in
  check "memo hits = the memo's own total" (Some (Fatnet_numerics.Memo.hits memo))
    (count "serve_memo_hits");
  check "memo misses = the memo's own total" (Some (Fatnet_numerics.Memo.misses memo))
    (count "serve_memo_misses");
  Alcotest.(check int) "one memo lookup per latency or quantile request" 60
    (Fatnet_numerics.Memo.hits memo + Fatnet_numerics.Memo.misses memo)

(* One answer line per request line, as `fatnet query --offline`
   writes it. *)
let answer_line oracle line =
  match Protocol.frame_of_line line with
  | Error msg -> Protocol.error_line msg
  | Ok frame ->
      let batched, parsed =
        match frame with
        | Protocol.Single p -> (false, [| p |])
        | Protocol.Batch ps -> (true, Array.of_list ps)
      in
      let b = Buffer.create 256 in
      Protocol.buf_add_frame_responses b ~batched (Oracle.answer_batch oracle parsed);
      Buffer.contents b

(* --- the socket edge ----------------------------------------------- *)

let with_daemon f =
  let path = Filename.temp_file "fatnet-serve-test" ".sock" in
  Sys.remove path;
  let stop = Atomic.make false in
  let metrics = Metrics.create () in
  let oracle = Oracle.create ~domains:1 ~metrics scenario in
  let server =
    Domain.spawn (fun () ->
        Server.serve
          {
            Server.address = Server.Unix_path path;
            max_batch = Server.default_max_batch;
            stop;
            metrics;
            tracer = Fatnet_obs.Trace.disabled;
          }
          oracle)
  in
  (* Wait for the socket to appear. *)
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon never bound its socket";
    if not (Sys.file_exists path) then (Unix.sleepf 0.01; wait (n - 1))
  in
  wait 500;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join server;
      Oracle.shutdown oracle;
      Alcotest.(check bool) "socket unlinked on shutdown" false (Sys.file_exists path))
    (fun () -> f path)

let connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd, fd)

(* [Server.serve] on [path] with [stop] already set: it binds,
   leaves its loop at once and unlinks its socket. *)
let serve_once path =
  let oracle = Oracle.create ~domains:1 scenario in
  Fun.protect
    ~finally:(fun () -> Oracle.shutdown oracle)
    (fun () ->
      Server.serve
        {
          Server.address = Server.Unix_path path;
          max_batch = Server.default_max_batch;
          stop = Atomic.make true;
          metrics = Metrics.disabled;
          tracer = Fatnet_obs.Trace.disabled;
        }
        oracle)

(* A listen path is claimed only from a stale socket.  A second daemon
   on a live daemon's path is refused and leaves the first one
   answering; a socket file that refuses connections is replaced. *)
let listen_path_claims_only_stale_sockets () =
  with_daemon (fun path ->
      Alcotest.check_raises "second daemon refused"
        (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
        (fun () -> serve_once path);
      let ic, oc, fd = connect path in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      output_string oc "{\"op\": \"saturation\"}\n";
      flush oc;
      Alcotest.(check bool) "first daemon still answers" true
        (Json.member "ok" (Json.parse (input_line ic)) = Some (Json.Bool true)));
  let path = Filename.temp_file "fatnet-serve-test" ".sock" in
  Sys.remove path;
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.close fd;
  Alcotest.(check bool) "stale socket left behind" true (Sys.file_exists path);
  serve_once path;
  Alcotest.(check bool) "replaced, then unlinked on shutdown" false (Sys.file_exists path)

let socket_end_to_end () =
  with_daemon @@ fun path ->
  let ic, oc, fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let sat = Lazy.force saturation in
  let lambda = 0.5 *. sat in
  let ws = Scenario.evaluator scenario in
  let expected = Eval.mean_into ws ~lambda_g:lambda in
  (* Line 1: a valid request.  Lines 2 and 3: garbage, the second a
     short \u escape — the daemon must answer both in order, keep the
     connection, and answer line 4. *)
  Printf.fprintf oc {|{"id": 1, "lambda": %s}|} (Json.shortest_float lambda);
  output_string oc "\n{ not json\n";
  output_string oc {|{"op":"\u12"}|};
  output_string oc "\n";
  Printf.fprintf oc {|[{"id": 2, "lambda": %s}, {"op": "saturation"}]|}
    (Json.shortest_float lambda);
  output_string oc "\n";
  flush oc;
  let l1 = input_line ic in
  let l2 = input_line ic in
  let l3 = input_line ic in
  let l4 = input_line ic in
  (match Json.parse l1 with
  | j ->
      Alcotest.(check bool) "first answer ok" true
        (Json.member "ok" j = Some (Json.Bool true));
      (match Json.member "value" j with
      | Some (Json.Num v) ->
          Alcotest.(check bool) "socket answer bit-identical to Eval" true
            (Int64.bits_of_float v = Int64.bits_of_float expected)
      | _ -> Alcotest.fail "value missing"));
  (match Json.parse l2 with
  | j ->
      Alcotest.(check bool) "garbage answered ok:false" true
        (Json.member "ok" j = Some (Json.Bool false));
      (match Json.member "error" j with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.fail "friendly error missing"));
  Alcotest.(check bool) "short \\u escape answered ok:false" true
    (Json.member "ok" (Json.parse l3) = Some (Json.Bool false));
  match Json.parse l4 with
  | Json.Arr [ first; second ] ->
      Alcotest.(check bool) "batch answer order" true
        (Json.member "id" first = Some (Json.Num 2.));
      (match Json.member "value" first with
      | Some (Json.Num v) ->
          Alcotest.(check bool) "batched answer bit-identical" true
            (Int64.bits_of_float v = Int64.bits_of_float expected)
      | _ -> Alcotest.fail "batch value missing");
      (match Json.member "value" second with
      | Some (Json.Num v) ->
          Alcotest.(check bool) "saturation bit-identical" true
            (Int64.bits_of_float v = Int64.bits_of_float sat)
      | _ -> Alcotest.fail "saturation value missing")
  | _ -> Alcotest.fail "batched request should answer with an array line"

let socket_line_over_many_reads () =
  (* A request line that arrives a byte per write, lines that share a
     write, and a line split across two writes: each complete line is
     answered once, in order. *)
  with_daemon @@ fun path ->
  let ic, _, fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let lambda = 0.5 *. Lazy.force saturation in
  let expected = Eval.mean_into (Scenario.evaluator scenario) ~lambda_g:lambda in
  let line = Printf.sprintf {|{"id": 1, "lambda": %s}|} (Json.shortest_float lambda) in
  let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  String.iter
    (fun c ->
      send (String.make 1 c);
      Unix.sleepf 0.001)
    line;
  send ("\n" ^ line ^ "\n{ not json\n" ^ String.sub line 0 5);
  Unix.sleepf 0.01;
  send (String.sub line 5 (String.length line - 5) ^ "\n");
  let answers = List.init 4 (fun _ -> Json.parse (input_line ic)) in
  List.iteri
    (fun i j ->
      if i = 2 then
        Alcotest.(check bool) "garbage answered ok:false" true
          (Json.member "ok" j = Some (Json.Bool false))
      else
        match Json.member "value" j with
        | Some (Json.Num v) ->
            Alcotest.(check bool)
              (Printf.sprintf "answer %d bit-identical" (i + 1))
              true
              (Int64.bits_of_float v = Int64.bits_of_float expected)
        | _ -> Alcotest.failf "answer %d has no value" (i + 1))
    answers

(* A line past [Server.line_cap] (here three megabytes of [ with no
   newline, written whole before anything is read) gets one error line
   and then EOF; another connection, open meanwhile, keeps answering.
   The daemon reads and discards what follows the cap rather than
   closing on it, so the write completes instead of failing with a
   broken pipe. *)
let socket_line_cap () =
  with_daemon @@ fun path ->
  let ic2, oc2, fd2 = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd2) @@ fun () ->
  let ic, _, fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let long = String.make (3 * Server.line_cap) '[' in
  let rec send off =
    if off < String.length long then
      send (off + Unix.write_substring fd long off (String.length long - off))
  in
  send 0;
  let want = Protocol.error_line (Printf.sprintf "line longer than %d bytes" Server.line_cap) in
  Alcotest.(check string) "one error line" want (input_line ic ^ "\n");
  Alcotest.check_raises "then EOF" End_of_file (fun () -> ignore (input_line ic));
  output_string oc2 "{\"op\": \"saturation\"}\n";
  flush oc2;
  Alcotest.(check bool) "the other connection still answers" true
    (Json.member "ok" (Json.parse (input_line ic2)) = Some (Json.Bool true));
  (* A client still sending its over-long line when the daemon gives
     up on it reads the error line, not a broken pipe. *)
  let got = Buffer.create 128 in
  Server.query (Server.Unix_path path) [ String.make (3 * Server.line_cap) '[' ]
    (Buffer.add_subbytes got);
  Alcotest.(check string) "the query client reads the error line" want (Buffer.contents got)

let scrape path =
  let ic, oc, fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  output_string oc "GET /metrics HTTP/1.0\r\n\r\n";
  flush oc;
  In_channel.input_all ic

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* The sum of a scrape's samples whose series starts with [series]. *)
let sample_sum body series =
  let n = String.length series in
  String.split_on_char '\n' body
  |> List.filter_map (fun l ->
         if String.length l > n && String.sub l 0 n = series then
           match String.rindex_opt l ' ' with
           | Some i -> float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
           | None -> None
         else None)
  |> List.fold_left ( +. ) 0.

(* A client that sends 20 000 requests and reads nothing: the daemon
   stops reading it once its unsent answers pass
   [Server.out_high_water], keeps answering another client, and, once
   the first client reads, sends it every answer in order, byte for
   byte what offline evaluation gives. *)
let socket_output_bound () =
  with_daemon @@ fun path ->
  let sat = Lazy.force saturation in
  let lines =
    Array.init 20_000 (fun i ->
        Printf.sprintf {|{"id": %d, "lambda": %s}|} i
          (Json.shortest_float (sat *. float_of_int (1 + (i mod 8)) /. 10.)))
  in
  let ic, _, fd = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let writer =
    Domain.spawn (fun () ->
        let all = String.concat "\n" (Array.to_list lines) ^ "\n" in
        let rec send off =
          if off < String.length all then
            send (off + Unix.write_substring fd all off (String.length all - off))
        in
        send 0)
  in
  let rec wait_paused n =
    if n = 0 then Alcotest.fail "the daemon never paused the silent client";
    if sample_sum (scrape path) {|serve_limits_total{reason="output_high_water"}|} = 0. then (
      Unix.sleepf 0.02;
      wait_paused (n - 1))
  in
  wait_paused 500;
  (* Paused, not just slow: what it has answered stays below what it
     was sent while the client still reads nothing. *)
  Unix.sleepf 0.3;
  let answered = sample_sum (scrape path) "serve_requests_total{" in
  if answered >= float_of_int (Array.length lines) then
    Alcotest.failf "all %.0f requests answered while the client read nothing" answered;
  let ic2, oc2, fd2 = connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd2) (fun () ->
      output_string oc2 "{\"op\": \"saturation\"}\n";
      flush oc2;
      Alcotest.(check bool) "the other connection still answers" true
        (Json.member "ok" (Json.parse (input_line ic2)) = Some (Json.Bool true)));
  let oracle = Oracle.create ~domains:1 scenario in
  Fun.protect ~finally:(fun () -> Oracle.shutdown oracle) (fun () ->
      Array.iteri
        (fun i line ->
          let want = answer_line oracle line in
          let got = input_line ic ^ "\n" in
          if got <> want then Alcotest.failf "answer %d: %S <> %S" i got want)
        lines);
  Domain.join writer

(* [Server.query] (the [fatnet query --connect] client) with more
   than [Server.out_high_water] of answers: it reads while it sends,
   so the daemon's pause cannot wedge it, and the answers arrive in
   order, byte for byte what offline evaluation gives. *)
let query_client_many_answers () =
  with_daemon @@ fun path ->
  let sat = Lazy.force saturation in
  let lines =
    List.init 20_000 (fun i ->
        Printf.sprintf {|{"id": %d, "lambda": %s}|} i
          (Json.shortest_float (sat *. float_of_int (1 + (i mod 8)) /. 10.)))
  in
  let got = Buffer.create (1 lsl 21) in
  Server.query (Server.Unix_path path) lines (Buffer.add_subbytes got);
  Alcotest.(check bool) "more than the high-water mark" true
    (Buffer.length got > Server.out_high_water);
  let oracle = Oracle.create ~domains:1 scenario in
  Fun.protect ~finally:(fun () -> Oracle.shutdown oracle) (fun () ->
      let want = String.concat "" (List.map (answer_line oracle) lines) in
      Alcotest.(check bool) "answers = offline, in order" true (Buffer.contents got = want))

let metrics_scrape () =
  with_daemon @@ fun path ->
  (* First, some traffic so the counters are non-zero. *)
  let ic, oc, fd = connect path in
  Printf.fprintf oc {|{"op": "saturation"}|};
  output_string oc "\n";
  flush oc;
  ignore (input_line ic);
  Unix.close fd;
  (* Then an HTTP scrape on the same socket. *)
  let body = scrape path in
  let contains = contains body in
  Alcotest.(check bool) "HTTP 200" true (contains "HTTP/1.0 200");
  Alcotest.(check bool) "request counter exported" true
    (contains "serve_requests_total");
  Alcotest.(check bool) "saturation op labelled" true (contains "op=\"saturation\"")

(* --- golden wire answers ------------------------------------------- *)

(* test/golden/FIG.requests mixes latency, quantile (q = 0.5, 0.99,
   0.999) and saturation requests, some batched, at λ up to 1.2x the
   scenario's saturation rate; FIG.answers is what
   `fatnet query --offline --scenario examples/FIG.scn` printed for
   them before the model kernel deduplicated cluster classes.  The
   other identity tests compare two in-tree paths that change
   together; this one fails if the answers themselves move. *)

(* dune runtest runs from _build/default/test, dune exec from the
   workspace root. *)
let locate rel = if Sys.file_exists rel then rel else Filename.concat ".." rel

let read_lines path =
  In_channel.with_open_bin (locate path) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")


let golden_answers fig () =
  let scn =
    match Scenario.load (locate ("examples/" ^ fig ^ ".scn")) with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let requests = read_lines ("test/golden/" ^ fig ^ ".requests") in
  let expected = read_lines ("test/golden/" ^ fig ^ ".answers") in
  Alcotest.(check int) "one answer per request" (List.length requests) (List.length expected);
  let oracle = Oracle.create ~domains:1 scn in
  Fun.protect ~finally:(fun () -> Oracle.shutdown oracle) @@ fun () ->
  List.iteri
    (fun i (req, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%s line %d" fig (i + 1))
        (want ^ "\n") (answer_line oracle req))
    (List.combine requests expected)

(* The [point] op's answer bytes.  A replicated sweep of the small
   system stores two points into a point cache; an oracle over that
   cache answers both, and a λ between them finds nothing.  The lines
   were recorded before the simulated point became one record. *)
let point_answers_unchanged () =
  let module Engine = Fatnet_experiments.Sweep_engine in
  let scn =
    Scenario.make ~name:"serve-point" ~system:small_system ~message
      ~protocol:{ Scenario.quick_protocol with Scenario.warmup = 50; measured = 400; drain = 50 }
      ~replication:
        {
          Scenario.target_rel = 0.1;
          confidence = 0.95;
          min_reps = 2;
          max_reps = 3;
          target = Scenario.Mean;
        }
      ~load:(Scenario.Linear { lambda_max = 2e-3; steps = 2 })
      ()
  in
  let dir = Filename.temp_file "fatnet-serve-points" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      Fatnet_experiments.Point_cache.clear ~dir;
      try Sys.rmdir dir with Sys_error _ -> ())
  @@ fun () ->
  let outcome =
    Engine.run_sweep
      ~config:{ Engine.default_config with Engine.cache = Engine.Cache_dir dir }
      scn
  in
  Alcotest.(check int) "both points executed" 2 outcome.Engine.stats.Engine.executed;
  let oracle = Oracle.create ~domains:1 ~cache_dir:dir scn in
  Fun.protect ~finally:(fun () -> Oracle.shutdown oracle) @@ fun () ->
  List.iter
    (fun (req, want) -> Alcotest.(check string) req (want ^ "\n") (answer_line oracle req))
    [
      ( {|{"id": 1, "op": "point", "lambda": 0.001}|},
        {|{"id": 1, "ok": true, "op": "point", "found": true, "mean": 39.284139831200726, "p50": 39.81742730572675, "p90": 60.864927615798706, "p99": 92.5208918774486, "p999": 100.11238469380024, "ci_half_width": 1.5873737611825318, "replications": 3, "events": 660231}|}
      );
      ( {|{"id": 2, "op": "point", "lambda": 0.002}|},
        {|{"id": 2, "ok": true, "op": "point", "found": true, "mean": 45.84279191028687, "p50": 40.04356027579109, "p90": 77.5232448814348, "p99": 142.41774282120284, "p999": 154.18480777279862, "ci_half_width": 2.2013094461433966, "replications": 2, "events": 407962}|}
      );
      ( {|{"id": 3, "op": "point", "lambda": 0.0015}|},
        {|{"id": 3, "ok": true, "op": "point", "found": false}|} );
    ]

let saturation_follows_pattern () =
  (* A local-pattern copy of Fig. 5: the scenario's saturation rate,
     the model's over the scenario's evaluator and the daemon's answer
     are one number, and the pattern moves it. *)
  let scn =
    match Scenario.load (locate "test/golden/fig5-variants-local.scn") with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let bits = Int64.bits_of_float in
  let sat = Scenario.saturation_rate scn in
  Alcotest.(check bool) "= Eval.saturation_rate over the evaluator" true
    (bits sat = bits (Eval.saturation_rate (Scenario.evaluator scn)));
  let oracle = Oracle.create ~domains:1 scn in
  Fun.protect ~finally:(fun () -> Oracle.shutdown oracle) (fun () ->
      let r =
        Oracle.answer_batch oracle
          [| Protocol.Req { Protocol.id = Json.Null; query = Protocol.Saturation } |]
      in
      Alcotest.(check bool) "= the oracle's answer" true (bits sat = bits (value_of r.(0))));
  let uniform = { scn with Scenario.pattern = Fatnet_workload.Destination.Uniform } in
  Alcotest.(check bool) "the local pattern moves it" true
    (bits sat <> bits (Scenario.saturation_rate uniform))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "good requests" `Quick protocol_parses_good_requests;
          Alcotest.test_case "bad requests get friendly errors" `Quick
            protocol_rejects_bad_requests;
          Alcotest.test_case "response lines" `Quick response_lines_roundtrip;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "daemon = direct Eval, bit for bit" `Quick
            daemon_matches_direct_eval;
          QCheck_alcotest.to_alcotest qcheck_batches_bit_identical;
          Alcotest.test_case "request and memo counts exact" `Quick request_counts_exact;
        ] );
      ( "socket",
        [
          Alcotest.test_case "end to end, malformed line survives" `Quick
            socket_end_to_end;
          Alcotest.test_case "a line over many reads" `Quick socket_line_over_many_reads;
          Alcotest.test_case "an over-long line is answered, then closed" `Quick
            socket_line_cap;
          Alcotest.test_case "a client that never reads is paused, then answered" `Quick
            socket_output_bound;
          Alcotest.test_case "the query client reads while it sends" `Quick
            query_client_many_answers;
          Alcotest.test_case "prometheus scrape" `Quick metrics_scrape;
          Alcotest.test_case "listen path claims only stale sockets" `Quick
            listen_path_claims_only_stale_sockets;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fig3 (org_1120) answers unchanged" `Quick (golden_answers "fig3");
          Alcotest.test_case "fig4 (org_1120, M = 64) answers unchanged" `Quick
            (golden_answers "fig4");
          Alcotest.test_case "fig5 (org_544) answers unchanged" `Quick (golden_answers "fig5");
          Alcotest.test_case "fig6 (org_544, M = 64) answers unchanged" `Quick
            (golden_answers "fig6");
          Alcotest.test_case "saturation follows the scenario's pattern" `Quick
            saturation_follows_pattern;
          Alcotest.test_case "point answers from the point cache unchanged" `Quick
            point_answers_unchanged;
        ] );
    ]

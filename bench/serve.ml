(* The latency-oracle serve driver (BENCH_serve.json): the analytical
   model as a query service.  A deterministic request stream — a
   bounded population of distinct λ values (a live client asks about
   operating points, not random bit patterns), 1/8 quantile queries,
   the odd saturation probe — goes through [Oracle.answer_batch] in
   fixed-size batches at each domain count up to the host's
   recommendation, recording sustained queries/s and exact p50/p99
   service times (a request's service time is its batch's wall: every
   answer in a batch lands together).  Every answer is asserted
   bit-identical to a fresh sequential evaluation before any number is
   recorded.  Gates: the best configuration sustains at least 1e5
   queries/s with a p99 service time of at most 1 ms, and the serve
   edge allocates at most 900 B per request line parsed and 50 B per
   answer line rendered ([edge_rows]). *)

module Eval = Fatnet_model.Eval
module Scenario = Fatnet_scenario.Scenario
module Oracle = Fatnet_serve.Oracle
module Sproto = Fatnet_serve.Protocol
module Memo = Fatnet_numerics.Memo
open Harness

let batch = 64

let scenario =
  Scenario.make ~name:"bench-serve" ~system:Fatnet_model.Presets.org_544 ~message:message32
    ~load:(Scenario.Fixed 1e-4) ()

let request query = Sproto.Req { Sproto.id = Fatnet_obs.Json.Null; query }

(* The deterministic request stream: an LCG walks the λ grid, every
   8th request asks for p99 instead of the mean, every 1024th probes
   saturation. *)
let request_stream ~requests ~distinct sat =
  let lambdas =
    Array.init distinct (fun j -> 0.98 *. sat *. float_of_int (j + 1) /. float_of_int distinct)
  in
  let state = ref 0x9E3779B97F4A7C15L in
  let next () =
    state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    Int64.to_int (Int64.shift_right_logical !state 33)
  in
  Array.init requests (fun i ->
      let lambda = lambdas.(next () mod distinct) in
      request
        (if i mod 1024 = 1023 then Sproto.Saturation
         else if i mod 8 = 7 then Sproto.Quantile { lambda; q = 0.99 }
         else Sproto.Latency { lambda }))

(* Sequential reference answers: direct Eval calls, no pool, no daemon
   machinery — the oracle must reproduce these bits whatever its batch
   order or memo history.  A direct call for a given (op, λ) is itself
   deterministic, so each distinct pair is evaluated once and mapped
   over the stream. *)
let reference stream =
  let ws = Scenario.evaluator scenario in
  let sat = Eval.saturation_rate ws in
  let table = Hashtbl.create 8192 in
  let once key f =
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None ->
        let v = f () in
        Hashtbl.add table key v;
        v
  in
  Array.map
    (function
      | Sproto.Req { query = Sproto.Latency { lambda }; _ } ->
          once (`L (Int64.bits_of_float lambda)) (fun () -> Eval.mean_into ws ~lambda_g:lambda)
      | Sproto.Req { query = Sproto.Quantile { lambda; q }; _ } ->
          once (`Q (Int64.bits_of_float lambda, Int64.bits_of_float q)) (fun () ->
              Eval.quantile ws ~lambda_g:lambda ~q)
      | Sproto.Req { query = Sproto.Saturation; _ } -> sat
      | _ -> Float.nan)
    stream

let assert_bits label reference answers =
  Array.iteri
    (fun i r ->
      let got =
        match (r : Sproto.response).Sproto.outcome with
        | Ok (_, Sproto.Value v) -> v
        | _ -> Float.nan
      in
      if Int64.bits_of_float got <> Int64.bits_of_float reference.(i) then
        die "serve bench: BIT MISMATCH (%s) at request %d: oracle %h, reference %h" label i got
          reference.(i))
    answers

(* Exact request-weighted percentile over (batch wall, batch size): a
   request completes when its batch does. *)
let percentile samples total p =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) samples in
  let target = max 1 (min total (int_of_float (Float.round (p *. float_of_int total)))) in
  let rec go acc = function
    | [] -> 0.
    | (w, n) :: rest -> if acc + n >= target then w else go (acc + n) rest
  in
  go 0 sorted

(* The warm-up pass: one query per (op, distinct λ) plus a saturation
   probe, untimed.  A daemon's sustained rate is its rate once the
   operating points in play have been solved; the cold cost is real
   but a one-time cost, recorded separately as [warmup_seconds]. *)
let warmup oracle ~distinct sat =
  let reqs =
    Array.init
      ((2 * distinct) + 1)
      (fun i ->
        request
          (if i = 2 * distinct then Sproto.Saturation
           else
             let lambda = 0.98 *. sat *. float_of_int ((i / 2) + 1) /. float_of_int distinct in
             if i mod 2 = 0 then Sproto.Latency { lambda }
             else Sproto.Quantile { lambda; q = 0.99 }))
  in
  snd (timed (fun () -> ignore (Oracle.answer_batch oracle reqs)))

let config_rows ~distinct stream reference sat domains =
  let oracle = Oracle.create ~domains scenario in
  let warmup = warmup oracle ~distinct sat in
  let n = Array.length stream in
  let answers = Array.make n None in
  let samples = ref [] in
  let (), wall =
    timed (fun () ->
        let pos = ref 0 in
        while !pos < n do
          let k = min batch (n - !pos) in
          let slice = Array.sub stream !pos k in
          let rs, bwall = timed (fun () -> Oracle.answer_batch oracle slice) in
          samples := (bwall, k) :: !samples;
          Array.iteri (fun i r -> answers.(!pos + i) <- Some r) rs;
          pos := !pos + k
        done)
  in
  assert_bits (Printf.sprintf "%d domains" domains) reference (Array.map Option.get answers);
  let memo = Oracle.memo oracle in
  let qps = float_of_int n /. wall in
  let p99 = percentile !samples n 0.99 in
  Oracle.shutdown oracle;
  let p = Printf.sprintf "d%d." domains in
  ( (domains, qps, p99),
    [
      row (p ^ "warmup_seconds") "s" warmup;
      row (p ^ "wall_seconds") "s" wall;
      row ~better:(at_domains domains Higher) (p ^ "queries_per_sec") "1/s" qps;
      row (p ^ "p50_seconds") "s" (percentile !samples n 0.50);
      row ~better:(at_domains domains Lower) (p ^ "p99_seconds") "s" p99;
      row (p ^ "memo.hits") "lookups" (float_of_int (Memo.hits memo));
      row (p ^ "memo.misses") "lookups" (float_of_int (Memo.misses memo));
      row (p ^ "memo.hit_rate") "fraction" (Memo.hit_rate memo);
      row (p ^ "memo.entries") "entries" (float_of_int (Memo.length memo));
      row (p ^ "memo.evictions") "entries" (float_of_int (Memo.evictions memo));
    ] )

(* The serve edge, counted: bytes allocated per request line by
   [Protocol.frame_of_line] and per answer line by
   [Protocol.buf_add_frame_responses] (into a buffer already grown),
   over the golden fig5 stream (test/golden/fig5.requests; run from
   the repository root).  Allocation repeats exactly, so both rows
   are gated just above their value. *)
let edge_rows () =
  let lines =
    In_channel.with_open_bin "test/golden/fig5.requests" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> Array.of_list
  in
  let frames =
    Array.map
      (fun l ->
        match Sproto.frame_of_line l with
        | Ok (Sproto.Single p) -> (false, [| p |])
        | Ok (Sproto.Batch ps) -> (true, Array.of_list ps)
        | Error e -> die "serve bench: golden request %S does not parse: %s" l e)
      lines
  in
  let scn =
    match Scenario.load "examples/fig5.scn" with
    | Ok s -> s
    | Error e -> die "serve bench: %s" e
  in
  let oracle = Oracle.create ~domains:1 scn in
  let answers = Array.map (fun (_, ps) -> Oracle.answer_batch oracle ps) frames in
  Oracle.shutdown oracle;
  (* The second of two passes, so buffers have grown in the first.
     Every block allocated here is small, so the minor heap's count
     is all of it ([Gc.allocated_bytes] lags it under OCaml 5.1). *)
  let per_line pass =
    pass ();
    let before = Gc.minor_words () in
    pass ();
    (Gc.minor_words () -. before) *. float_of_int (Sys.word_size / 8)
    /. float_of_int (Array.length lines)
  in
  let parse =
    per_line (fun () -> Array.iter (fun l -> ignore (Sys.opaque_identity (Sproto.frame_of_line l))) lines)
  in
  let b = Buffer.create 4096 in
  let render =
    per_line (fun () ->
        Array.iteri
          (fun i (batched, _) ->
            Buffer.clear b;
            Sproto.buf_add_frame_responses b ~batched answers.(i))
          frames)
  in
  [
    row ~better:Lower "edge.frame_of_line_bytes" "B" parse;
    row ~better:Lower "edge.render_bytes" "B" render;
  ]

let run ~quick =
  let requests = if quick then 60_000 else 300_000 in
  let distinct = if quick then 512 else 4096 in
  let domain_counts =
    List.sort_uniq compare
      (List.filter (fun d -> d <= recommended_domains) [ 1; 2; 4; 8 ] @ [ recommended_domains ])
  in
  with_minor_heap (fun () ->
      let sat = Eval.saturation_rate (Scenario.evaluator scenario) in
      let stream = request_stream ~requests ~distinct sat in
      let reference = reference stream in
      let configs = List.map (config_rows ~distinct stream reference sat) domain_counts in
      let best_domains, best_qps, best_p99 =
        List.fold_left
          (fun ((_, bq, _) as best) ((d, q, _) as c) ->
            if d <= recommended_domains && q > bq then c else best)
          (0, 0., Float.infinity) (List.map fst configs)
      in
      record ~suite:"serve"
        ~title:
          (Printf.sprintf
             "latency-oracle serve driver: org_544 scenario, in-process Oracle.answer_batch \
              dispatch (socket framing excluded), %d requests over %d distinct rates, batches \
              of %d"
             requests distinct batch)
        ~note:
          "dN is N domains; service time of a request is its batch's wall clock (answers in a \
           batch land together); every answer asserted bit-identical to a fresh sequential \
           evaluation in process; the request mix is 1/8 p99-quantile and 1/1024 saturation \
           probes, rest mean latency; each config first warms the memo over the full \
           distinct-rate grid untimed (warmup_seconds) — sustained rate is the warm rate, as \
           for a long-running daemon; best is the highest queries/s among configs with at most \
           recommended_domains domains"
        ~gates:
          [
            gate_min "best.queries_per_sec" 1e5;
            gate_max "best.p99_seconds" 1e-3;
            gate_max "edge.frame_of_line_bytes" 900.;
            gate_max "edge.render_bytes" 50.;
          ]
        ([
           row "requests" "requests" (float_of_int requests);
           row "distinct_lambdas" "rates" (float_of_int distinct);
           row "batch" "requests" (float_of_int batch);
         ]
        @ List.concat_map snd configs
        @ [
            row "best.domains" "domains" (float_of_int best_domains);
            row ~better:Higher "best.queries_per_sec" "1/s" best_qps;
            row ~better:Lower "best.p99_seconds" "s" best_p99;
          ]
        @ edge_rows ()))

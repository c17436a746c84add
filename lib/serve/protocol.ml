module Json = Fatnet_obs.Json
module Runner = Fatnet_sim.Runner
module Summary = Fatnet_stats.Summary

type query =
  | Latency of { lambda : float }
  | Quantile of { lambda : float; q : float }
  | Saturation
  | Point of { lambda : float }

type request = { id : Json.t; query : query }

type parsed = Req of request | Malformed of Json.t * string

type frame = Single of parsed | Batch of parsed list

type reply = Value of float | Point_hit of Runner.point | Point_miss

type response = { rid : Json.t; outcome : (string * reply, string) result }

let op_name = function
  | Latency _ -> "latency"
  | Quantile _ -> "quantile"
  | Saturation -> "saturation"
  | Point _ -> "point"

(* ------------------------------------------------------------------ *)
(* Requests *)

let request_id j = match Json.member "id" j with Some v -> v | None -> Json.Null

let parse_request j : parsed =
  match j with
  | Json.Obj _ -> (
      let id = request_id j in
      let bad msg = Malformed (id, msg) in
      let number field =
        match Json.member field j with
        | Some (Json.Num x) -> Ok (Some x)
        | Some _ -> Error (field ^ ": expected a number")
        | None -> Ok None
      in
      let lambda () =
        match number "lambda" with
        | Error e -> Error e
        | Ok None -> Error "lambda: required for this op"
        | Ok (Some l) when not (Float.is_finite l) -> Error "lambda: must be finite"
        | Ok (Some l) when l < 0. -> Error "lambda: must be >= 0"
        | Ok (Some l) -> Ok l
      in
      let op =
        match Json.member "op" j with
        | None -> Ok "latency"
        | Some (Json.Str s) -> Ok s
        | Some _ -> Error "op: expected a string"
      in
      match op with
      | Error e -> bad e
      | Ok "latency" -> (
          match lambda () with
          | Error e -> bad e
          | Ok l -> Req { id; query = Latency { lambda = l } })
      | Ok "quantile" -> (
          match (lambda (), number "q") with
          | Error e, _ -> bad e
          | _, Error e -> bad e
          | _, Ok None -> bad "q: required for op \"quantile\""
          | _, Ok (Some q) when not (q > 0. && q < 1.) ->
              bad "q: must be strictly between 0 and 1"
          | Ok l, Ok (Some q) -> Req { id; query = Quantile { lambda = l; q } })
      | Ok "saturation" -> Req { id; query = Saturation }
      | Ok "point" -> (
          match lambda () with
          | Error e -> bad e
          | Ok l -> Req { id; query = Point { lambda = l } })
      | Ok other ->
          bad
            (Printf.sprintf
               "op: unknown op %S (expected \"latency\", \"quantile\", \"saturation\" or \
                \"point\")"
               other))
  | _ -> Malformed (Json.Null, "expected a JSON object or an array of objects")

let frame_of_line line : (frame, string) result =
  match Json.parse_result line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok (Json.Arr items) -> Ok (Batch (List.map parse_request items))
  | Ok j -> Ok (Single (parse_request j))

(* ------------------------------------------------------------------ *)
(* Responses *)

(* Non-finite values cannot be JSON numbers; the convention is the
   metrics snapshot's — tagged strings — so a saturated latency
   renders as "inf".  Finite values use the shortest round-tripping
   decimal, which is what makes socket answers bit-comparable to
   direct [Eval] calls. *)
let buf_add_float b v =
  if Float.is_finite v then Buffer.add_string b (Json.shortest_float v)
  else if Float.is_nan v then Buffer.add_string b "\"nan\""
  else if v > 0. then Buffer.add_string b "\"inf\""
  else Buffer.add_string b "\"-inf\""

let rec buf_add_json b = function
  | Json.Null -> Buffer.add_string b "null"
  | Json.Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Json.Num v -> buf_add_float b v
  | Json.Str s -> Json.buf_add_string b s
  | Json.Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          buf_add_json b v)
        l;
      Buffer.add_char b ']'
  | Json.Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Json.buf_add_string b k;
          Buffer.add_string b ": ";
          buf_add_json b v)
        l;
      Buffer.add_char b '}'

let field b name =
  Buffer.add_string b ", ";
  Json.buf_add_string b name;
  Buffer.add_string b ": "

let float_field b name v =
  field b name;
  buf_add_float b v

let buf_add_response b (r : response) =
  Buffer.add_string b "{\"id\": ";
  buf_add_json b r.rid;
  (match r.outcome with
  | Error msg ->
      Buffer.add_string b ", \"ok\": false";
      field b "error";
      Json.buf_add_string b msg
  | Ok (op, reply) -> (
      Buffer.add_string b ", \"ok\": true";
      field b "op";
      Json.buf_add_string b op;
      match reply with
      | Value v ->
          float_field b "value" v;
          if op = "latency" || op = "quantile" then begin
            field b "saturated";
            Buffer.add_string b (if Float.is_finite v then "false" else "true")
          end
      | Point_miss ->
          field b "found";
          Buffer.add_string b "false"
      | Point_hit p ->
          let s = p.Runner.summary in
          field b "found";
          Buffer.add_string b "true";
          float_field b "mean" s.Summary.mean;
          float_field b "p50" s.Summary.p50;
          float_field b "p90" s.Summary.p90;
          float_field b "p99" s.Summary.p99;
          float_field b "p999" s.Summary.p999;
          float_field b "ci_half_width" p.Runner.ci_half_width;
          field b "replications";
          Buffer.add_string b (string_of_int p.Runner.replications);
          field b "events";
          Buffer.add_string b (string_of_int p.Runner.events)));
  Buffer.add_char b '}'

(* A frame's worth of responses, rs.(off) .. rs.(off + len - 1),
   mirroring its shape: an object line for a [Single] frame, an array
   line for a [Batch] (answers in request order), so clients
   correlate by position as well as [id]. *)
let buf_add_frame b ~batched (rs : response array) off len =
  if batched then begin
    Buffer.add_char b '[';
    for i = off to off + len - 1 do
      if i > off then Buffer.add_string b ", ";
      buf_add_response b rs.(i)
    done;
    Buffer.add_char b ']'
  end
  else (
    assert (len = 1);
    buf_add_response b rs.(off));
  Buffer.add_char b '\n'

let buf_add_frame_responses b ~batched rs = buf_add_frame b ~batched rs 0 (Array.length rs)

let error_line msg =
  let b = Buffer.create 64 in
  buf_add_response b { rid = Json.Null; outcome = Error msg };
  Buffer.add_char b '\n';
  Buffer.contents b

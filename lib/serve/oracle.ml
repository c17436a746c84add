module Scenario = Fatnet_scenario.Scenario
module Eval = Fatnet_model.Eval
module Memo = Fatnet_numerics.Memo
module Point_cache = Fatnet_experiments.Point_cache
module Cache_gate = Fatnet_experiments.Cache_gate
module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace
module Json = Fatnet_obs.Json

(* [serve_requests_total{op,outcome}] as one pool slot last resolved
   it: the registry, and one counter per (op, outcome) registered on
   first use, so a series appears only once it counts. *)
type counts = { mutable creg : Metrics.t; ctrs : Metrics.counter option array }

(* Counter slots: [2 * op + (0 ok | 1 error)], ops in this order. *)
let op_slot = function
  | Protocol.Latency _ -> 0
  | Protocol.Quantile _ -> 1
  | Protocol.Saturation -> 2
  | Protocol.Point _ -> 3

let invalid_slot = 4

type t = {
  scenario : Scenario.t;
  skey : string;  (* Scenario.memo_key: canonical hash, load axis zeroed *)
  qkey : string;  (* [skey ^ "|q:"], the quantile keys' common prefix *)
  pool : Eval.Pool.t;
  (* One workspace per pool slot, built once: slot i is only ever
     used by the domain holding ctx id i, so the mutable scratch is
     single-domain as the workspace contract requires. *)
  wss : Eval.workspace array;
  counts : counts array;  (* per pool slot, like [wss] *)
  memo : float Memo.t;
  points : Fatnet_sim.Runner.point Memo.t;
  cache_dir : string option;
  gate : Cache_gate.t;
  sat : float Atomic.t;  (* nan until first computed *)
  metrics : Metrics.t;
  tracer : Trace.t;
}

let default_memo_capacity = 1024
let default_cache_recovery = 512

let create ?domains ?(memo_capacity = default_memo_capacity) ?cache_dir
    ?(cache_recovery = default_cache_recovery) ?(metrics = Metrics.disabled)
    ?(tracer = Trace.disabled) scenario =
  (match Scenario.validate scenario with
  | Ok () -> ()
  | Error e -> invalid_arg ("Oracle.create: " ^ e));
  let capacity = if memo_capacity = 0 then None else Some memo_capacity in
  let pool = Eval.Pool.create ?domains () in
  let skey = Scenario.memo_key scenario in
  {
    scenario;
    skey;
    qkey = skey ^ "|q:";
    pool;
    wss = Array.init (Eval.Pool.domains pool) (fun _ -> Scenario.evaluator scenario);
    counts =
      Array.init (Eval.Pool.domains pool) (fun _ ->
          { creg = Metrics.disabled; ctrs = Array.make ((invalid_slot + 1) * 2) None });
    memo = Memo.create ?capacity ~metric:"serve_memo" ();
    points = Memo.create ?capacity ~metric:"serve_point_memo" ();
    cache_dir;
    gate =
      Cache_gate.create
        ?recover_after:(if cache_recovery = 0 then None else Some cache_recovery)
        ~metrics
        ~context:
          (if cache_recovery = 0 then "for the rest of this process"
           else Printf.sprintf "for the next %d point lookups" cache_recovery)
        ~enabled:(cache_dir <> None) ();
    sat = Atomic.make Float.nan;
    metrics;
    tracer;
  }

let scenario t = t.scenario
let pool t = t.pool
let memo t = t.memo
let cache_degraded t = Cache_gate.degraded t.gate

let shutdown t = Eval.Pool.shutdown t.pool

(* The answer to "saturation" is computed once and pinned: the warm
   per-domain bracket ([Pool.ctx_bracket]) makes repeat solves cheap,
   but warm solves depend on history, so only the first computed
   value is ever published.  Every domain's first solve runs the cold
   sequence bit-for-bit (fresh bracket state), and racing domains
   both run cold, so whichever store wins publishes the same bits. *)
let saturation_rate t ctx ws =
  let v = Atomic.get t.sat in
  if Float.is_nan v then begin
    let r = Eval.saturation_rate ~state:(Eval.Pool.ctx_bracket ctx) ws in
    Atomic.set t.sat r;
    r
  end
  else v

let point_bits = 0L

let answer_point t lambda =
  match t.cache_dir with
  | None -> Error "no point cache configured (start the daemon with --cache-dir)"
  | Some dir -> (
      let k = Point_cache.key (Scenario.at t.scenario lambda) in
      match Memo.find t.points ~key:k ~bits:point_bits with
      | Some p -> Ok ("point", Protocol.Point_hit p)
      | None ->
          if Cache_gate.ready t.gate then (
            match Point_cache.find ~dir k with
            | Some p ->
                Memo.store t.points ~key:k ~bits:point_bits p;
                Ok ("point", Protocol.Point_hit p)
            | None -> Ok ("point", Protocol.Point_miss)
            | exception exn ->
                Cache_gate.trip t.gate ~op:"find" exn;
                Ok ("point", Protocol.Point_miss))
          else Ok ("point", Protocol.Point_miss))

(* Held per ambient registry, revalidated by physical equality as
   [Eval.mean_into] holds its evaluation counter: one pool slot is
   only ever used by one domain at a time, so its record needs no
   lock. *)
let count_request t ctx ~slot op ~ok =
  let c = t.counts.(Eval.Pool.ctx_id ctx) in
  let reg = Metrics.ambient () in
  if reg != c.creg then begin
    c.creg <- reg;
    Array.fill c.ctrs 0 (Array.length c.ctrs) None
  end;
  let i = (2 * slot) + if ok then 0 else 1 in
  let ctr =
    match c.ctrs.(i) with
    | Some ctr -> ctr
    | None ->
        let ctr =
          Metrics.counter reg "serve_requests_total"
            ~labels:[ ("op", op); ("outcome", (if ok then "ok" else "error")) ]
            ~help:"Oracle requests answered, by op and outcome"
        in
        c.ctrs.(i) <- Some ctr;
        ctr
  in
  Metrics.incr ctr

(* The primitive [Printf]'s [%Lx] reaches, so quantile memo keys keep
   their bytes without a format interpretation per request. *)
external int64_format : string -> int64 -> string = "caml_int64_format"

let answer_one t ctx (p : Protocol.parsed) : Protocol.response =
  match p with
  | Protocol.Malformed (id, msg) ->
      count_request t ctx ~slot:invalid_slot "invalid" ~ok:false;
      { Protocol.rid = id; outcome = Error msg }
  | Protocol.Req { id; query } ->
      let ws = t.wss.(Eval.Pool.ctx_id ctx) in
      let op = Protocol.op_name query in
      Trace.in_span t.tracer "serve.request" @@ fun sp ->
      Trace.attr sp "op" op;
      let outcome =
        match query with
        | Protocol.Latency { lambda } ->
            let v =
              Memo.find_or_compute t.memo ~key:t.skey
                ~bits:(Int64.bits_of_float lambda) (fun () ->
                  Eval.mean_into ws ~lambda_g:lambda)
            in
            Ok (op, Protocol.Value v)
        | Protocol.Quantile { lambda; q } ->
            (* q widens the memo key, λ stays on the bits axis, so
               quantile and latency answers for one λ never alias. *)
            let key = t.qkey ^ int64_format "%Lx" (Int64.bits_of_float q) in
            let v =
              Memo.find_or_compute t.memo ~key ~bits:(Int64.bits_of_float lambda)
                (fun () -> Eval.quantile ws ~lambda_g:lambda ~q)
            in
            Ok (op, Protocol.Value v)
        | Protocol.Saturation -> Ok (op, Protocol.Value (saturation_rate t ctx ws))
        | Protocol.Point { lambda } -> answer_point t lambda
      in
      count_request t ctx ~slot:(op_slot query) op ~ok:(Result.is_ok outcome);
      { Protocol.rid = id; outcome }

let answer_batch t (reqs : Protocol.parsed array) : Protocol.response array =
  Metrics.with_ambient t.metrics @@ fun () ->
  Eval.Pool.map t.pool reqs ~f:(fun ctx p -> answer_one t ctx p)

(** The oracle's wire protocol: newline-delimited JSON.

    One request per line, or one JSON array of requests per line (a
    client-side batch); the daemon answers with exactly one line per
    request line, mirroring the shape — an object for an object, an
    array (answers in request order) for an array.  Requests:

    {v
    {"id": 7, "op": "latency", "lambda": 2e-5}
    {"op": "quantile", "lambda": 2e-5, "q": 0.99}
    {"op": "saturation"}
    {"op": "point", "lambda": 2e-5}
    v}

    [id] is optional and echoed verbatim (any JSON value); [op]
    defaults to ["latency"].  Responses:

    {v
    {"id": 7, "ok": true, "op": "latency", "value": 0.000232..., "saturated": false}
    {"id": null, "ok": false, "error": "lambda: expected a number"}
    v}

    Finite values are rendered with the shortest decimal that parses
    back to exactly the same IEEE-754 bits ([Json.shortest_float]),
    so a socket answer is bit-comparable to a direct {!Fatnet_model.Eval}
    call; non-finite values render as the tagged strings ["inf"],
    ["-inf"], ["nan"] (the metrics-snapshot convention), with
    [saturated: true] alongside for latency/quantile answers.  A
    malformed line or request yields an [ok: false] answer in its
    slot and never closes the connection. *)

type query =
  | Latency of { lambda : float }
  | Quantile of { lambda : float; q : float }
  | Saturation
  | Point of { lambda : float }
      (** look up the {e simulated} point for [Scenario.at lambda] in
          the daemon's {!Fatnet_experiments.Point_cache} *)

type request = { id : Fatnet_obs.Json.t; query : query }

type parsed =
  | Req of request
  | Malformed of Fatnet_obs.Json.t * string
      (** the request's [id] (when recoverable) and a friendly
          message; answered in place so batch alignment survives *)

type frame = Single of parsed | Batch of parsed list

type reply =
  | Value of float
  | Point_hit of Fatnet_sim.Runner.point
      (** rendered as its summary's mean and quantile ladder, then its
          CI half-width, replications and events *)
  | Point_miss

type response = {
  rid : Fatnet_obs.Json.t;
  outcome : (string * reply, string) result;  (** op name × reply *)
}

val op_name : query -> string

val frame_of_line : string -> (frame, string) result
(** Parse one wire line.  [Error] only when the line is not valid
    JSON at all (the server answers it with {!error_line}); an
    element that is valid JSON but a bad request comes back as
    [Malformed] inside the frame. *)

val buf_add_response : Buffer.t -> response -> unit

val buf_add_frame : Buffer.t -> batched:bool -> response array -> int -> int -> unit
(** [buf_add_frame b ~batched rs off len] renders one answer line for
    the frame whose responses are [rs.(off)] to [rs.(off + len - 1)]:
    [batched:false] expects exactly one response. *)

val buf_add_frame_responses : Buffer.t -> batched:bool -> response array -> unit
(** {!buf_add_frame} over the whole array. *)

val error_line : string -> string
(** A complete [{"id": null, "ok": false, "error": ...}] line. *)

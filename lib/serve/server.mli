(** The daemon's socket edge: a single-threaded [select] loop.

    The protocol edge is deliberately single-threaded — evaluation
    parallelism lives in the {!Oracle}'s domain pool, so the server
    needs no locking and answers stay in arrival order.  Each loop
    round drains every readable connection, assembles everything that
    arrived into pool dispatches of at most [max_batch] requests, and
    buffers the answers back per connection (a frame's answer line
    mirrors its request line's shape; see {!Protocol}).

    A connection whose first line starts with [GET ] is treated as an
    HTTP scrape: [GET /metrics] answers one [HTTP/1.0 200] with the
    registry's Prometheus exposition and closes — enough for
    [curl --unix-socket] and a Prometheus scrape config, and the same
    text [--metrics-format prometheus] renders.

    Observability: [serve_requests_total{op,outcome}] (from the
    oracle), [serve_batch_size], [serve_queue_depth],
    [serve_request_seconds] (arrival → response buffered, so it
    includes loop queueing), [serve_connections_total],
    [serve_active_connections]; [serve.batch] / [serve.request]
    spans on the tracer. *)

type address = Unix_path of string | Tcp of string * int

val address_of_string : string -> (address, string) result
(** ["unix:PATH"] or ["tcp:HOST:PORT"] (empty HOST = 127.0.0.1). *)

val address_to_string : address -> string

type config = {
  address : address;
  max_batch : int;  (** pool-dispatch size cap; {!default_max_batch} *)
  stop : bool Atomic.t;
      (** checked every loop round (≤ 0.2 s): set it from a signal
          handler or another domain for a clean shutdown — listener
          closed, connections closed, unix socket file unlinked *)
  metrics : Fatnet_obs.Metrics.t;
  tracer : Fatnet_obs.Trace.t;
}

val default_max_batch : int
(** 1024. *)

val serve : config -> Oracle.t -> unit
(** Bind, listen, and run until [stop].  Raises [Unix.Unix_error]
    (address in use, permission) from the initial bind.  At a unix
    path only a stale socket — a socket file whose connect is refused
    — is replaced; a live daemon's socket, a regular file or anything
    else there is left as it is and raises
    [Unix_error (EADDRINUSE, "bind", path)].  Does not shut down the
    oracle. *)

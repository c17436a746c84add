module Metrics = Fatnet_obs.Metrics
module Trace = Fatnet_obs.Trace
module Log = Fatnet_obs.Log

type address = Unix_path of string | Tcp of string * int

let address_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if path = "" then Error "unix address needs a path (unix:PATH)"
      else Ok (Unix_path path)
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> Error "tcp address needs a host and port (tcp:HOST:PORT)"
      | Some j -> (
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 ->
              Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
          | _ -> Error (Printf.sprintf "invalid tcp port %S" port)))
  | _ -> Error (Printf.sprintf "invalid listen address %S (expected unix:PATH or tcp:HOST:PORT)" s)

let address_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

type config = {
  address : address;
  max_batch : int;
  stop : bool Atomic.t;
  metrics : Metrics.t;
  tracer : Trace.t;
}

let default_max_batch = 1024

(* ------------------------------------------------------------------ *)
(* Per-connection state.  Output is a FIFO of rendered chunks with a
   byte offset into the head, so partial writes resume cleanly. *)

type conn = {
  fd : Unix.file_descr;
  inb : Buffer.t;
  outq : string Queue.t;
  mutable sent : int;  (* bytes of the head chunk already written *)
  mutable http : bool;  (* an HTTP scrape: discard input, close when drained *)
  mutable eof : bool;  (* peer shut down its write side *)
  mutable dead : bool;
}

let enqueue c s = if s <> "" then Queue.add s c.outq

let has_output c = not (Queue.is_empty c.outq)

(* ------------------------------------------------------------------ *)
(* Minimal HTTP for `GET /metrics`: enough for curl and a Prometheus
   scrape, nothing more.  Everything but /metrics is a 404. *)

let http_response reg line =
  let path =
    match String.split_on_char ' ' line with _ :: p :: _ -> p | _ -> "/"
  in
  let status, body =
    if path = "/metrics" || String.length path >= 9 && String.sub path 0 9 = "/metrics?" then
      ("200 OK", Metrics.Snapshot.to_prometheus (Metrics.snapshot reg))
    else ("404 Not Found", "only /metrics is served\n")
  in
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: \
     %d\r\nConnection: close\r\n\r\n%s"
    status (String.length body) body

(* ------------------------------------------------------------------ *)

(* A unix listen path is claimed only from a stale socket: a socket
   file whose connect is refused, left by a daemon that died without
   unlinking it.  A live daemon's socket, a regular file or anything
   else at the path stays as it is, and the bind fails as in use. *)
let claim_unix_path path =
  let in_use () = raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path)) in
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let refused =
        Fun.protect
          ~finally:(fun () -> Unix.close probe)
          (fun () ->
            match Unix.connect probe (Unix.ADDR_UNIX path) with
            | () -> false
            | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true
            | exception Unix.Unix_error _ -> false)
      in
      if refused then (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ())
      else in_use ()
  | _ -> in_use ()

let listener_of_address = function
  | Unix_path path ->
      claim_unix_path path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      fd

(* One frame of work: where the answers go back to, the shape to
   mirror, the parsed requests, and when they arrived (service time
   includes queueing in this loop, not just evaluation). *)
type work = {
  w_conn : conn;
  w_batched : bool;
  w_parsed : Protocol.parsed array;
  w_arrived : float;
}

let serve config oracle =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let reg = config.metrics in
  let requests_hist =
    Metrics.histogram reg "serve_request_seconds" ~lo:0. ~hi:0.05 ~bins:50
      ~help:"Request service time: arrival to response buffered"
  in
  let batch_hist =
    Metrics.histogram reg "serve_batch_size" ~lo:0. ~hi:1024. ~bins:64
      ~help:"Requests dispatched to the pool per batch"
  in
  let queue_gauge =
    Metrics.gauge reg "serve_queue_depth" ~help:"Requests pending at dispatch time"
  in
  let conns_total =
    Metrics.counter reg "serve_connections_total" ~help:"Connections accepted"
  in
  let active_gauge =
    Metrics.gauge reg "serve_active_connections" ~help:"Currently open connections"
  in
  let listener = listener_of_address config.address in
  Unix.set_nonblock listener;
  let conns : conn list ref = ref [] in
  let set_active () = Metrics.set active_gauge (float_of_int (List.length !conns)) in
  let close_conn c =
    if not c.dead then begin
      c.dead <- true;
      (try Unix.close c.fd with Unix.Unix_error _ -> ())
    end
  in
  Log.info "fatnet serve: listening on %s" (address_to_string config.address);
  let buf = Bytes.create 65536 in
  let pending : work list ref = ref [] in
  let handle_line c line =
    let line = if String.length line > 0 && line.[String.length line - 1] = '\r'
      then String.sub line 0 (String.length line - 1) else line in
    if c.http || line = "" then ()
    else if String.length line >= 4 && String.sub line 0 4 = "GET " then begin
      c.http <- true;
      enqueue c (http_response reg line)
    end
    else begin
      (* Even an unparseable line becomes a pending frame: answers
         must leave in request-line order, and an error line that
         jumped ahead of earlier frames still in dispatch would break
         positional correlation. *)
      let batched, parsed =
        match Protocol.frame_of_line line with
        | Error msg ->
            (false, [| Protocol.Malformed (Fatnet_obs.Json.Null, msg) |])
        | Ok (Protocol.Single p) -> (false, [| p |])
        | Ok (Protocol.Batch ps) -> (true, Array.of_list ps)
      in
      pending :=
        { w_conn = c; w_batched = batched; w_parsed = parsed;
          w_arrived = Metrics.now_seconds () }
        :: !pending
    end
  in
  (* Hand each complete line of the [n] bytes just read to
     [handle_line], in order.  [c.inb] holds only the head of a line
     whose newline has not arrived, so each byte is scanned once, in
     [buf], and copied out once its line is complete: a line that
     arrives over k reads costs its length, not k times it. *)
  let take_lines c n =
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get buf i = '\n' then begin
        let line =
          if Buffer.length c.inb = 0 then Bytes.sub_string buf !start (i - !start)
          else begin
            Buffer.add_subbytes c.inb buf !start (i - !start);
            let l = Buffer.contents c.inb in
            Buffer.clear c.inb;
            l
          end
        in
        start := i + 1;
        handle_line c line
      end
    done;
    Buffer.add_subbytes c.inb buf !start (n - !start)
  in
  let read_conn c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> c.eof <- true
    | n -> take_lines c n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  let write_conn c =
    try
      let continue = ref true in
      while !continue && not (Queue.is_empty c.outq) do
        let s = Queue.peek c.outq in
        let rem = String.length s - c.sent in
        let n = Unix.write_substring c.fd s c.sent rem in
        if n = rem then begin
          ignore (Queue.pop c.outq);
          c.sent <- 0
        end
        else begin
          c.sent <- c.sent + n;
          continue := false
        end
      done
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | Unix.Unix_error _ -> close_conn c
  in
  (* Answer everything read this round in [max_batch]-sized pool
     dispatches, then route each frame's slice back to its
     connection, shape preserved. *)
  let dispatch () =
    let work = List.rev !pending in
    pending := [];
    if work <> [] then begin
      let total = List.fold_left (fun a w -> a + Array.length w.w_parsed) 0 work in
      Metrics.set queue_gauge (float_of_int total);
      let all = Array.make total (Protocol.Malformed (Fatnet_obs.Json.Null, "")) in
      let off = ref 0 in
      List.iter
        (fun w ->
          Array.blit w.w_parsed 0 all !off (Array.length w.w_parsed);
          off := !off + Array.length w.w_parsed)
        work;
      let answers = Array.make total None in
      let chunk = max 1 config.max_batch in
      let pos = ref 0 in
      while !pos < total do
        let n = min chunk (total - !pos) in
        let slice = Array.sub all !pos n in
        Metrics.observe batch_hist (float_of_int n);
        let rs =
          Trace.in_span config.tracer "serve.batch" @@ fun sp ->
          Trace.attr_int sp "requests" n;
          Oracle.answer_batch oracle slice
        in
        Array.iteri (fun i r -> answers.(!pos + i) <- Some r) rs;
        pos := !pos + n
      done;
      let done_at = Metrics.now_seconds () in
      let off = ref 0 in
      List.iter
        (fun w ->
          let k = Array.length w.w_parsed in
          let rs =
            Array.init k (fun i ->
                match answers.(!off + i) with
                | Some r -> r
                | None ->
                    { Protocol.rid = Fatnet_obs.Json.Null;
                      outcome = Error "internal error: unanswered request" })
          in
          off := !off + k;
          if not w.w_conn.dead then begin
            let b = Buffer.create 256 in
            Protocol.buf_add_frame_responses b ~batched:w.w_batched rs;
            enqueue w.w_conn (Buffer.contents b)
          end;
          for _ = 1 to k do
            Metrics.observe requests_hist (done_at -. w.w_arrived)
          done)
        work;
      Metrics.set queue_gauge 0.
    end
  in
  let cleanup () =
    (try Unix.close listener with Unix.Unix_error _ -> ());
    List.iter close_conn !conns;
    match config.address with
    | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  in
  (* The main select loop: single-threaded by design — evaluation
     parallelism lives in the oracle's pool, so the protocol edge
     needs no locking and answers stay in arrival order. *)
  (try
     while not (Atomic.get config.stop) do
       conns :=
         List.filter
           (fun c ->
             if c.dead || (c.eof && not (has_output c)) || (c.http && not (has_output c))
             then (close_conn c; false)
             else true)
           !conns;
       set_active ();
       let rd = listener :: List.filter_map
                  (fun c -> if c.eof then None else Some c.fd)
                  !conns in
       let wr = List.filter_map (fun c -> if has_output c then Some c.fd else None) !conns in
       match Unix.select rd wr [] 0.2 with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | readable, writable, _ ->
           if List.memq listener readable then begin
             let accepting = ref true in
             while !accepting do
               match Unix.accept listener with
               | fd, _ ->
                   Unix.set_nonblock fd;
                   Metrics.incr conns_total;
                   conns :=
                     { fd; inb = Buffer.create 256; outq = Queue.create ();
                       sent = 0; http = false; eof = false; dead = false }
                     :: !conns
               | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                   accepting := false
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
             done
           end;
           List.iter
             (fun c -> if List.memq c.fd readable then read_conn c)
             !conns;
           dispatch ();
           (* Write opportunistically, not only when select flagged
              writability: fresh answers almost always fit the socket
              buffer, and EAGAIN just defers to the next round (the
              [wr] set above wakes the loop when space frees up). *)
           ignore (writable : Unix.file_descr list);
           List.iter (fun c -> if has_output c then write_conn c) !conns
     done
   with e -> cleanup (); raise e);
  cleanup ();
  Log.info "fatnet serve: shut down cleanly"

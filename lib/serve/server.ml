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

let line_cap = 1 lsl 20
let out_high_water = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Per-connection state.  Answers are rendered straight into [out];
   its bytes from [sent] on are not written yet, so a partial write
   resumes where it stopped. *)

type reading =
  | Lines  (* request lines *)
  | Http  (* an HTTP scrape: input discarded, closed once answered *)
  | Over
      (* sent a line past [line_cap]: input discarded; once the error
         line drains, the write side is shut and the connection closes
         at EOF or at [linger] *)
  | Done  (* the peer shut down its write side: closed once drained *)

type conn = {
  fd : Unix.file_descr;
  inb : Buffer.t;  (* the head of a line whose newline has not come *)
  out : Buffer.t;
  mutable sent : int;
  mutable reading : reading;
  mutable linger : float;  (* [Over]: 0 until the write side is shut, then the close deadline *)
  mutable dead : bool;
}

let unsent c = Buffer.length c.out - c.sent
let has_output c = unsent c > 0

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

let inet_addr host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> failwith (Printf.sprintf "cannot resolve host %S" host))

let listener_of_address = function
  | Unix_path path ->
      claim_unix_path path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet_addr host, port));
      Unix.listen fd 64;
      fd

let retryable = function Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true | _ -> false

(* Send and read at once: the daemon stops reading a connection whose
   unsent answers pass [out_high_water], so a client that sent every
   line before reading any would wait on the daemon while the daemon
   waits on it.  One answer line comes back per request line: read
   exactly as many lines as were sent. *)
let query address lines emit =
  let sockaddr =
    match address with
    | Unix_path p -> Unix.ADDR_UNIX p
    | Tcp (host, port) -> Unix.ADDR_INET (inet_addr host, port)
  in
  (match Sys.os_type with "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore | _ -> ());
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd sockaddr;
  Unix.set_nonblock fd;
  let request = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  let expected = List.length lines in
  let sent = ref 0 and answered = ref 0 in
  let buf = Bytes.create 65536 in
  while !answered < expected do
    let wr = if !sent < String.length request then [ fd ] else [] in
    match Unix.select [ fd ] wr [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rd, wr, _ ->
        if wr <> [] then begin
          match Unix.single_write_substring fd request !sent (String.length request - !sent) with
          | n -> sent := !sent + n
          | exception Unix.Unix_error (e, _, _) when retryable e -> ()
        end;
        if rd <> [] then begin
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 ->
              raise
                (Sys_error
                   (Printf.sprintf "connection closed after %d of %d answers" !answered expected))
          | n ->
              (* Up to the last expected answer; anything after it is not ours. *)
              let upto = ref 0 in
              while !upto < n && !answered < expected do
                if Bytes.get buf !upto = '\n' then incr answered;
                incr upto
              done;
              emit buf 0 !upto
          | exception Unix.Unix_error (e, _, _) when retryable e -> ()
        end
  done

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
  let limit reason =
    Metrics.counter reg "serve_limits_total" ~labels:[ ("reason", reason) ]
      ~help:"Connections limited by a serve bound, by reason"
  in
  let line_cap_closes = limit "line_cap" and output_pauses = limit "output_high_water" in
  (* A connection whose unsent output is past [out_high_water] is not
     read until it drains below it, so a client that sends and never
     reads holds at most that much output, plus one round's answers. *)
  let readable c =
    match c.reading with
    | Lines -> unsent c <= out_high_water
    | Http | Over -> true
    | Done -> false
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
  let finished c =
    c.dead
    || (not (has_output c))
       &&
       match c.reading with
       | Lines -> false
       | Http | Done -> true
       | Over -> c.linger > 0. && Metrics.now_seconds () > c.linger
  in
  Log.info "fatnet serve: listening on %s" (address_to_string config.address);
  (* One byte area for every read and every write of the loop. *)
  let buf = Bytes.create 65536 in
  let pending : work list ref = ref [] in
  let push_frame c ~batched parsed =
    pending :=
      { w_conn = c; w_batched = batched; w_parsed = parsed;
        w_arrived = Metrics.now_seconds () }
      :: !pending
  in
  (* A line past [line_cap] is answered with one error line, in its
     place among the connection's answers; nothing after it is read. *)
  let reject_long_line c =
    c.reading <- Over;
    Buffer.reset c.inb;
    Metrics.incr line_cap_closes;
    push_frame c ~batched:false
      [| Protocol.Malformed
           (Fatnet_obs.Json.Null, Printf.sprintf "line longer than %d bytes" line_cap) |]
  in
  let handle_line c line =
    let n = String.length line in
    if n = 0 then ()
    else if n >= 4 && line.[0] = 'G' && line.[1] = 'E' && line.[2] = 'T' && line.[3] = ' '
    then begin
      c.reading <- Http;
      Buffer.add_string c.out (http_response reg line)
    end
    else
      (* Even an unparseable line becomes a pending frame: answers
         must leave in request-line order, and an error line that
         jumped ahead of earlier frames still in dispatch would break
         positional correlation. *)
      match Protocol.frame_of_line line with
      | Error msg ->
          push_frame c ~batched:false [| Protocol.Malformed (Fatnet_obs.Json.Null, msg) |]
      | Ok (Protocol.Single p) -> push_frame c ~batched:false [| p |]
      | Ok (Protocol.Batch ps) -> push_frame c ~batched:true (Array.of_list ps)
  in
  (* Hand each complete line of the [n] bytes just read to
     [handle_line], in order, without its newline or "\r\n".  [c.inb]
     holds only the head of a line whose newline has not arrived, so
     each byte is scanned once, in [buf], and copied out once its line
     is complete: a line that arrives over k reads costs its length,
     not k times it. *)
  let take_lines c n =
    let start = ref 0 in
    for i = 0 to n - 1 do
      if c.reading = Lines && Bytes.get buf i = '\n' then begin
        if Buffer.length c.inb + (i - !start) > line_cap then reject_long_line c
        else begin
          let line =
            if Buffer.length c.inb = 0 then
              let stop = if i > !start && Bytes.get buf (i - 1) = '\r' then i - 1 else i in
              Bytes.sub_string buf !start (stop - !start)
            else begin
              Buffer.add_subbytes c.inb buf !start (i - !start);
              let l = Buffer.length c.inb in
              let l = if Buffer.nth c.inb (l - 1) = '\r' then l - 1 else l in
              let line = Buffer.sub c.inb 0 l in
              Buffer.clear c.inb;
              line
            end
          in
          start := i + 1;
          handle_line c line
        end
      end
    done;
    if c.reading = Lines then begin
      Buffer.add_subbytes c.inb buf !start (n - !start);
      if Buffer.length c.inb > line_cap then reject_long_line c
    end
  in
  let read_conn c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> c.reading <- Done
    | n -> take_lines c n
    | exception Unix.Unix_error (e, _, _) when retryable e -> ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  (* Write [c.out]'s unsent bytes through [buf]: one write a round
     while a round's answers fit it.  Once they have all gone, [out]
     is emptied for the next round (keeping its storage unless a burst
     grew it past [buf]'s size); a connection that reads slowly has
     its written head dropped once it passes that size.  An [Over]
     connection whose error line has gone gets its write side shut,
     so the peer reads the line and then EOF. *)
  let write_conn c =
    try
      let blocked = ref false in
      while (not !blocked) && has_output c do
        let n = min (unsent c) (Bytes.length buf) in
        Buffer.blit c.out c.sent buf 0 n;
        let w = Unix.single_write c.fd buf 0 n in
        c.sent <- c.sent + w;
        blocked := w < n
      done;
      if not (has_output c) then begin
        if Buffer.length c.out > Bytes.length buf then Buffer.reset c.out else Buffer.clear c.out;
        c.sent <- 0;
        if c.reading = Over && c.linger = 0. then begin
          (try Unix.shutdown c.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
          c.linger <- Metrics.now_seconds () +. 1.
        end
      end
      else if c.sent > Bytes.length buf && c.sent >= unsent c then begin
        let rest = Buffer.sub c.out c.sent (unsent c) in
        Buffer.reset c.out;
        Buffer.add_string c.out rest;
        c.sent <- 0
      end
    with
    | Unix.Unix_error (e, _, _) when retryable e -> ()
    | Unix.Unix_error _ -> close_conn c
  in
  let answer all pos n =
    Metrics.observe batch_hist (float_of_int n);
    Trace.in_span config.tracer "serve.batch" @@ fun sp ->
    Trace.attr_int sp "requests" n;
    Oracle.answer_batch oracle (if n = Array.length all then all else Array.sub all pos n)
  in
  (* Answer everything read this round in [max_batch]-sized pool
     dispatches, then render each frame's answers, shape preserved,
     straight into its connection's output. *)
  let dispatch () =
    match List.rev !pending with
    | [] -> ()
    | work ->
        pending := [];
        let all = Array.concat (List.map (fun w -> w.w_parsed) work) in
        let total = Array.length all in
        Metrics.set queue_gauge (float_of_int total);
        let chunk = max 1 config.max_batch in
        let answers =
          if total <= chunk then answer all 0 total
          else begin
            let parts = ref [] in
            let pos = ref 0 in
            while !pos < total do
              let n = min chunk (total - !pos) in
              parts := answer all !pos n :: !parts;
              pos := !pos + n
            done;
            Array.concat (List.rev !parts)
          end
        in
        let done_at = Metrics.now_seconds () in
        let off = ref 0 in
        List.iter
          (fun w ->
            let c = w.w_conn and k = Array.length w.w_parsed in
            if not c.dead then begin
              let before = unsent c in
              Protocol.buf_add_frame c.out ~batched:w.w_batched answers !off k;
              if before <= out_high_water && unsent c > out_high_water then
                Metrics.incr output_pauses
            end;
            off := !off + k;
            for _ = 1 to k do
              Metrics.observe requests_hist (done_at -. w.w_arrived)
            done)
          work;
        Metrics.set queue_gauge 0.
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
       conns := List.filter (fun c -> if finished c then (close_conn c; false) else true) !conns;
       set_active ();
       let rd = listener :: List.filter_map
                  (fun c -> if readable c then Some c.fd else None)
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
                     { fd; inb = Buffer.create 256; out = Buffer.create 4096; sent = 0;
                       reading = Lines; linger = 0.; dead = false }
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

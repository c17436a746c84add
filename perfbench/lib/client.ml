(* The open-loop load generator: one process, one thread, one request
   connection (plus, at the benchmark's level, a short-lived scrape
   connection for GET /metrics).

   Requests go out on their due times whether or not earlier answers
   have come back, so a stalled daemon accumulates backlog exactly as
   it would under independent users.  Everything due when the
   generator gets to run goes out in one write.  Latency runs from a
   request's due time to the arrival of its answer line; how late the
   generator itself sent is recorded separately, so a step where the
   client, not the daemon, fell behind can be voided.  The daemon
   answers one line per request line in arrival order, which is how
   answers are matched to requests. *)

let now = Proc.now

(* Seconds to wait for a daemon's socket to come up, and for the last
   answers of a trial once nothing more is due. *)
let connect_timeout = 60.
let drain = 5.

let connect path =
  let deadline = now () +. connect_timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.002;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  go ()

type t = { fd : Unix.file_descr; rbuf : Bytes.t; pending : Buffer.t }

let open_ path =
  let fd = connect path in
  Unix.set_nonblock fd;
  { fd; rbuf = Bytes.create 65536; pending = Buffer.create 4096 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

type step = {
  latency : float array;  (** seconds, due to answer; nan when unanswered *)
  late : float array;
      (** seconds the generator sent after the due time; in the closed
          loop, after the answer that freed the request's slot *)
  answers : string array;  (** raw answer lines; "" when unanswered *)
  answered : int;
  refused : bool;  (** the connection failed mid-step *)
}

(* Request bytes the socket has not taken yet. *)
type outbox = { buf : Buffer.t; mutable off : int }

let outbox () = { buf = Buffer.create 65536; off = 0 }

let push ob line =
  Buffer.add_string ob.buf line;
  Buffer.add_char ob.buf '\n'

(* Write as much of [ob] as the socket takes without blocking; the
   number of bytes written. *)
let flush t ob =
  let len = Buffer.length ob.buf - ob.off in
  if len = 0 then 0
  else
    match Unix.write_substring t.fd (Buffer.contents ob.buf) ob.off len with
    | k ->
        ob.off <- ob.off + k;
        if ob.off = Buffer.length ob.buf then (
          Buffer.clear ob.buf;
          ob.off <- 0);
        k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0

(* Read what the socket holds without blocking and call [f recv_at
   line] on each complete answer line, in order; a partial line stays
   in [t.pending].  Raises [Exit] when the daemon closes. *)
let read_answers t f =
  match Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> raise Exit
  | k ->
      let recv_at = now () in
      Buffer.add_subbytes t.pending t.rbuf 0 k;
      let s = Buffer.contents t.pending in
      let start = ref 0 in
      String.iteri
        (fun i c ->
          if c = '\n' then begin
            f recv_at (String.sub s !start (i - !start));
            start := i + 1
          end)
        s;
      Buffer.clear t.pending;
      Buffer.add_substring t.pending s !start (String.length s - !start)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* The generator spins while requests remain to be sent: a sleeping
   wake-up lands tens of microseconds late, which would be charged to
   the daemon's latency.  Once all are out it sleeps until answers
   arrive. *)
let run t ~due ~lines =
  let n = Array.length due in
  let latency = Array.make n Float.nan and late = Array.make n Float.nan in
  let answers = Array.make n "" in
  let ob = outbox () in
  let sent = ref 0 and got = ref 0 in
  let refused = ref false in
  let t0 = now () +. 0.002 in
  let deadline = (if n = 0 then t0 else t0 +. due.(n - 1)) +. drain in
  (try
     while !got < n && now () < deadline do
       let tnow = now () in
       while !sent < n && t0 +. due.(!sent) <= tnow do
         push ob lines.(!sent);
         late.(!sent) <- tnow -. (t0 +. due.(!sent));
         incr sent
       done;
       ignore (flush t ob);
       if !sent = n && ob.off = Buffer.length ob.buf then (
         try ignore (Unix.select [ t.fd ] [] [] (Float.max 0. (deadline -. now ())))
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
       read_answers t (fun recv_at answer ->
           if !got < n then begin
             answers.(!got) <- answer;
             latency.(!got) <- recv_at -. (t0 +. due.(!got));
             incr got
           end)
     done
   with Exit | Unix.Unix_error _ -> refused := true);
  { latency; late; answers; answered = !got; refused = !refused }

(* The closed loop behind the capacity metric: [window] requests in
   flight, the next one written as each answer arrives, until [secs]
   have passed or [lines] run out; then the last answers drain.  While
   the daemon never lacks work, answers over the time from the first
   write to the last answer is its throughput, and by Little's law each
   request waits about [window] / throughput.  The requests come
   rendered, and the slots an answer frees are refilled and written
   before the answer is recorded, so the client does little between
   an answer and its replacement.  The result lists the lines sent.

   A request's lateness here is the client's turnaround: from the
   read that brought the answer freeing its slot (the start, for the
   first [window]) to the write that hands its last byte to the
   socket.  For that long the slot is empty, so by Little's law the
   client holds throughput × mean turnaround of the window's slots;
   [client_share] is that over [window].  Near 0 the daemon always had
   work queued; near 1 the client, not the daemon, set the pace. *)
type closed = { sent : string array; step : step; throughput : float; client_share : float }

(* Over this share of the window held by the client, a closed-loop
   trial measures the client.  A client that keeps pace with the
   daemon gets answers back a few at a time and holds a few slots for
   a moment each; a client that sets the pace finds the whole window
   answered at each read and holds the slots while it works through
   them, over half the window on average. *)
let max_client_share = 0.25

let run_closed t ~window ~secs ~lines =
  let answers = ref [] and latency = ref [] and late = ref [] in
  let n_sent = ref 0 and got = ref 0 in
  let ob = outbox () in
  let refused = ref false in
  (* Slot-free times in order, consumed as answers arrive in the same
     order: a closed-loop latency includes the client's turnaround. *)
  let pending_at = Queue.create () in
  (* Requests not yet wholly written: the byte count at which each one
     ends, with the time its slot was freed. *)
  let unwritten = Queue.create () in
  let pushed = ref 0 and written = ref 0 in
  let send freed =
    if !n_sent < Array.length lines then begin
      let line = lines.(!n_sent) in
      incr n_sent;
      Queue.add freed pending_at;
      push ob line;
      pushed := !pushed + String.length line + 1;
      Queue.add (!pushed, freed) unwritten
    end
  in
  let write () =
    let k = flush t ob in
    if k > 0 then begin
      written := !written + k;
      let tw = now () in
      while (not (Queue.is_empty unwritten)) && fst (Queue.peek unwritten) <= !written do
        late := (tw -. snd (Queue.pop unwritten)) :: !late
      done
    end
  in
  let t0 = now () in
  let stop_at = t0 +. secs in
  let last = ref t0 in
  for _ = 1 to window do
    send t0
  done;
  (try
     while !got < !n_sent && now () -. !last < drain do
       write ();
       let batch = ref [] and recv_at = ref 0. in
       read_answers t (fun at answer ->
           recv_at := at;
           batch := answer :: !batch);
       if !batch <> [] then begin
         let recv_at = !recv_at in
         if recv_at < stop_at then List.iter (fun _ -> send recv_at) !batch;
         write ();
         List.iter
           (fun answer ->
             answers := answer :: !answers;
             latency := (recv_at -. Queue.pop pending_at) :: !latency;
             incr got)
           (List.rev !batch);
         last := recv_at
       end
     done
   with Exit | Unix.Unix_error _ -> refused := true);
  let n = !n_sent and answered = !got in
  let padded l fill = Array.append (Array.of_list (List.rev l)) (Array.make (n - List.length l) fill) in
  let throughput = if !last > t0 then float_of_int answered /. (!last -. t0) else Float.nan in
  let mean_late = List.fold_left ( +. ) 0. !late /. float_of_int (max 1 (List.length !late)) in
  {
    sent = Array.sub lines 0 n;
    step =
      { latency = padded !latency Float.nan; late = padded !late Float.nan; answers = padded !answers "";
        answered; refused = !refused };
    throughput;
    client_share = throughput *. mean_late /. float_of_int window;
  }

(* Send every line at once and wait for all answers: the set-up
   phases, where only completion matters. *)
let run_burst t lines = run t ~due:(Array.make (Array.length lines) 0.) ~lines

(* GET /metrics on a fresh connection: the Prometheus text body. *)
let scrape path =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let b = Buffer.create 16384 and chunk = Bytes.create 16384 in
      let rec read () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes b chunk 0 k;
            read ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
      in
      read ();
      let s = Buffer.contents b in
      let rec body i =
        if i + 4 > String.length s then s
        else if String.sub s i 4 = "\r\n\r\n" then String.sub s (i + 4) (String.length s - i - 4)
        else body (i + 1)
      in
      body 0)

(* A counter's value from Prometheus text: the sum over every series
   of that name (labels are folded together), 0 when absent. *)
let counter text name =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc l ->
         if String.length l = 0 || l.[0] = '#' then acc
         else
           let id, v =
             match String.rindex_opt l ' ' with
             | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
             | None -> (l, "")
           in
           let base = match String.index_opt id '{' with Some i -> String.sub id 0 i | None -> id in
           if base = name then acc +. Option.value (float_of_string_opt v) ~default:0. else acc)
       0.

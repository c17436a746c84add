type worm = {
  wid : float;
      (* creation serial (1., 2., ...): the calendar's final explicit
         tie-break rank for every event of this worm, see the push
         helpers below *)
  route : int array;
  flits : int;
  on_delivered : float -> unit;
  on_flit_delivered : int -> float -> unit;
  next_to_enter : int array;
      (* next_to_enter.(k): index of the flit that should next start
         crossing route.(k); doubles as the staleness check that makes
         advance attempts idempotent. *)
  mutable released : int;
      (* flits available for transmission at the source; [flits] for
         ordinary worms, grows one by one for gated worms *)
  mutable delivered_flits : int;
      (* flits that have landed at the ejection channel *)
  mutable streaming : bool;
      (* the closed-form fast path has taken over this worm: its
         remaining per-flit events in the calendar are stale *)
}

type gated = worm

(* Calendar entries are pooled, reusable cells rather than variant
   constructors: steady-state simulation then allocates no words per
   flit-hop (the old [Advance (w, j, k)] boxed three words per event
   and fed the minor GC at tens of millions of events per run).  A
   cell's meaning is given by [op]; unused fields hold dummies. *)
type op = Advance | Arrive | Callback | Deliver | Release

type cell = {
  mutable op : op;
  mutable w : worm;
  mutable j : int; (* flit index (Advance/Arrive/Deliver) *)
  mutable k : int; (* route index (Advance/Arrive) or channel id (Release) *)
  mutable fn : float -> unit; (* Callback *)
  mutable o1 : float; (* this event's own order key, for pushes it makes *)
  mutable o2 : float; (* this event's own second-level key, likewise *)
}

let nop_fn (_ : float) = ()
let nop_flit_fn (_ : int) (_ : float) = ()

let dummy_worm =
  {
    wid = 0.;
    route = [||];
    flits = 0;
    on_delivered = nop_fn;
    on_flit_delivered = nop_flit_fn;
    next_to_enter = [||];
    released = 0;
    delivered_flits = 0;
    streaming = false;
  }

type t = {
  hop_time : float array;
  is_ejection : bool array;
  reserved_by : worm option array;
  reserved_since : float array;
  busy_time : float array; (* cumulative reservation-held time per channel *)
  wire_free_at : float array;
  buffer : (worm * int) option array; (* flit occupying the downstream buffer *)
  waiters : (worm * int * float) Queue.t array;
      (* heads awaiting reservation: (worm, route index, enqueue time) *)
  blocked_time : float array; (* cumulative head wait served per channel *)
  queue : cell Event_queue.t;
  streaming_enabled : bool;
  mutable clock : float;
  mutable cur_order : float; (* order key of the event being processed *)
  mutable cur_order2 : float; (* its second-level key *)
  mutable next_wid : float; (* creation serial of the next worm *)
  mutable events : int;
  mutable busy : int;
  mutable max_waiters : int; (* peak reservation-queue depth, any channel *)
  mutable pool : cell array; (* free-list of recycled cells *)
  mutable pool_len : int;
}

let create ?(streaming = true) ~channel_count ~hop_time ~is_ejection () =
  if channel_count <= 0 then invalid_arg "Wormhole.create: channel_count must be positive";
  let times = Array.init channel_count hop_time in
  Array.iteri
    (fun c tau ->
      if not (tau > 0.) then
        invalid_arg (Printf.sprintf "Wormhole.create: hop_time %d must be positive" c))
    times;
  {
    hop_time = times;
    is_ejection = Array.init channel_count is_ejection;
    reserved_by = Array.make channel_count None;
    reserved_since = Array.make channel_count 0.;
    busy_time = Array.make channel_count 0.;
    wire_free_at = Array.make channel_count 0.;
    buffer = Array.make channel_count None;
    waiters = Array.init channel_count (fun _ -> Queue.create ());
    blocked_time = Array.make channel_count 0.;
    queue = Event_queue.create ();
    streaming_enabled = streaming;
    clock = 0.;
    cur_order = 0.;
    cur_order2 = 0.;
    next_wid = 1.;
    events = 0;
    busy = 0;
    max_waiters = 0;
    pool = [||];
    pool_len = 0;
  }

let now t = t.clock

(* ---- cell pool ---- *)

let alloc_cell t =
  if t.pool_len = 0 then { op = Callback; w = dummy_worm; j = 0; k = 0; fn = nop_fn; o1 = 0.; o2 = 0. }
  else begin
    let n = t.pool_len - 1 in
    t.pool_len <- n;
    t.pool.(n)
  end

let free_cell t cell =
  (* Drop references so a parked cell never retains a worm/closure. *)
  cell.w <- dummy_worm;
  cell.fn <- nop_fn;
  let cap = Array.length t.pool in
  if t.pool_len = cap then begin
    let fresh = Array.make (if cap = 0 then 64 else 2 * cap) cell in
    Array.blit t.pool 0 fresh 0 t.pool_len;
    t.pool <- fresh
  end;
  t.pool.(t.pool_len) <- cell;
  t.pool_len <- t.pool_len + 1

(* Every push records the clock at which it happened (or, for the
   streaming fast path, at which the slow path would have pushed the
   same event) as the queue's [order] tie-break, plus the pushing
   event's own order keys one and two causal levels up as
   [order2]/[order3].  Because the clock is monotone and events pop
   their own pushes in order, ordering equal-time events by
   (order, order2, order3, seq) is exactly the engine's pure-FIFO seq
   order for chronological pushes, while letting the fast path
   schedule events early yet pop them in the slot a chronological
   push would have given them, three tie levels deep. *)

let push_advance t ~time w j k =
  let cell = alloc_cell t in
  cell.op <- Advance;
  cell.w <- w;
  cell.j <- j;
  cell.k <- k;
  cell.o1 <- t.clock;
  cell.o2 <- t.cur_order;
  Event_queue.push_keyed t.queue ~order:t.clock ~order2:t.cur_order ~order3:t.cur_order2
    ~rank:w.wid ~time cell

let push_arrive t ~time w j k =
  let cell = alloc_cell t in
  cell.op <- Arrive;
  cell.w <- w;
  cell.j <- j;
  cell.k <- k;
  cell.o1 <- t.clock;
  cell.o2 <- t.cur_order;
  Event_queue.push_keyed t.queue ~order:t.clock ~order2:t.cur_order ~order3:t.cur_order2
    ~rank:w.wid ~time cell

let push_deliver t ~time ~order ~order2 ~order3 w j =
  let cell = alloc_cell t in
  cell.op <- Deliver;
  cell.w <- w;
  cell.j <- j;
  cell.o1 <- order;
  cell.o2 <- order2;
  Event_queue.push_keyed t.queue ~order ~order2 ~order3 ~rank:w.wid ~time cell

(* The slow path frees a channel inside the tail's advance, so a
   batched Release carries the rank of the streaming worm whose tail
   it stands in for. *)
let push_release t ~time ~order ~order2 ~order3 ~rank c =
  let cell = alloc_cell t in
  cell.op <- Release;
  cell.k <- c;
  cell.o1 <- order;
  cell.o2 <- order2;
  Event_queue.push_keyed t.queue ~order ~order2 ~order3 ~rank ~time cell

let schedule t ~time f =
  if time < t.clock then invalid_arg "Wormhole.schedule: time in the past";
  let cell = alloc_cell t in
  cell.op <- Callback;
  cell.fn <- f;
  cell.o1 <- t.clock;
  cell.o2 <- t.cur_order;
  Event_queue.push_keyed t.queue ~order:t.clock ~order2:t.cur_order ~order3:t.cur_order2
    ~rank:0. ~time cell

let same_worm a b = a == b

(* ---- reservation protocol ---- *)

(* Reserve [c] for [w] if free; otherwise queue the head.  Returns
   true when the reservation was granted immediately. *)
let try_reserve t c w k =
  match t.reserved_by.(c) with
  | None ->
      t.reserved_by.(c) <- Some w;
      t.reserved_since.(c) <- t.clock;
      t.busy <- t.busy + 1;
      ignore k;
      true
  | Some _ ->
      Queue.add (w, k, t.clock) t.waiters.(c);
      let depth = Queue.length t.waiters.(c) in
      if depth > t.max_waiters then t.max_waiters <- depth;
      false

(* ---- closed-form streaming fast path ----

   Once a worm's head holds the reservation of its ejection channel,
   the worm holds every not-yet-released channel of its route (heads
   reserve forward, tails release behind: reservations form a
   contiguous window that now reaches the end).  If additionally every
   flit is released at the source, no other worm can influence the
   worm's remaining motion: flits only wait on the worm's own wire
   pacing and buffer hand-offs, all on channels it owns.  The slow
   path realizes each enter time as the event time of the last guard
   to clear, so the remaining schedule satisfies, exactly:

     enter j k = max (arrive of j at k-1)          (upstream hand-off)
                     (enter (j-1) k + tau k)       (wire pacing)
                     (enter (j-1) (k+1))           (single-buffer free)

   with arrive j k = enter j k + tau k.  Every term is an event time
   the slow path would itself compute with the same float operations,
   so evaluating the recurrence directly — seeded with the in-flight
   state (wire_free_at for the flit mid-wire per channel, the current
   clock standing in for hand-offs that completed in the past) —
   reproduces the slow path's delivery and release times bit for bit.
   We then schedule one Deliver event per remaining flit and one
   Release per still-held channel instead of ~2·hops events per flit,
   and mark the worm so its stale calendar entries are ignored.

   Matching the times is not quite enough: commensurate hop times make
   equal-timestamp ties with *other* worms' events systematic (e.g. a
   concentrator chain whose segments share a time base), and the seed
   engine resolves ties in push order.  So each batched event also
   carries the [order]/[order2]/[order3] keys the chronological push
   would have had — its own push time, its pusher's, and its
   pusher's pusher's: a delivery's arrive is pushed when the flit
   enters the ejection channel (order = enter time) by the advance
   that realized that entry; a release happens inside the tail's
   successful advance, whose push time the winning recurrence term
   identifies — an advance that succeeds on its upstream hand-off
   attempt or on a wire-free retry was pushed at the hand-off time,
   one rescheduled by a full buffer was pushed when the buffer freed
   (on a wire/buffer tie, by whichever of the two the slow path's pop
   order resolves first, which the previous flit's push time
   decides).

   Three levels ground every tie between events whose push chains
   differ within three causal links.  Worms whose schedules run in
   exact float lockstep (e.g. two gated chains serialized earlier on
   a shared channel) can tie to any depth — and that order has real
   consequences: a delivery callback may release a gated flit whose
   head then joins a waiter queue, so whichever same-instant delivery
   pops first also queues first.  Full-depth ties therefore resolve
   by an explicit [rank], the worm's creation serial, which both
   paths know for every event they schedule (worms are created in
   identical order either way), instead of by push order, which an
   out-of-chronology scheduler cannot reproduce. *)

let maybe_stream t w =
  let route = w.route in
  let last = Array.length route - 1 in
  if
    (not t.streaming_enabled)
    || w.streaming
    || w.released < w.flits
    || w.delivered_flits >= w.flits
    || (match t.reserved_by.(route.(last)) with
       | Some o -> not (same_worm o w)
       | None -> true)
  then false
  else begin
    let nte = w.next_to_enter in
    let m = w.flits in
    let l = last + 1 in
    let clock = t.clock in
    (* The event being processed right now is the one whose pop
       triggered the takeover; a push the slow path would make at this
       very instant is made by it, so its keys are the seam stand-ins
       at the o2/o3 levels (clock stands in at the time/o1 levels). *)
    let cur1 = t.cur_order in
    let cur2 = t.cur_order2 in
    let d = w.delivered_flits in
    (* Enter times of the previous flit (j-1) into each route channel;
       [clock] stands in for entries that happened before the takeover
       (they are dominated by some >= clock term wherever they are
       still consulted, see note above). *)
    let e_prev = Array.make l clock in
    let e_cur = Array.make l clock in
    (* Push time of the advance that realized each enter (see note
       above): the [order] key of the events we batch.  [p2] is one
       tie level deeper — the order key of the event that made that
       push. *)
    let p_prev = Array.make l clock in
    let p_cur = Array.make l clock in
    let p2_prev = Array.make l cur1 in
    let p2_cur = Array.make l cur1 in
    let p3_prev = Array.make l cur2 in
    let p3_cur = Array.make l cur2 in
    for j = d to m - 1 do
      (* Channels this flit had already entered when we took over. *)
      let kpos = ref 0 in
      while !kpos < l && nte.(!kpos) > j do incr kpos done;
      let kpos = !kpos in
      if kpos = l then begin
        (* Already on the ejection channel: its Arrive event is in the
           calendar with the exact time and push order, and ejection
           arrivals stay live during streaming, so there is nothing to
           schedule. *)
        Array.fill e_cur 0 l clock;
        Array.fill p_cur 0 l clock;
        Array.fill p2_cur 0 l cur1;
        Array.fill p3_cur 0 l cur2
      end
      else begin
        (* Upstream hand-off seed for the first new hop: the flit
           either sits in the upstream buffer / is not yet injected
           (a past or current-instant event: clock), or is mid-wire
           upstream and lands at that wire's free time. *)
        let seed =
          if kpos = 0 then clock
          else begin
            let c_up = route.(kpos - 1) in
            let mid_wire =
              nte.(kpos - 1) = j + 1
              && (match t.buffer.(c_up) with
                 | Some (o, f) -> not (same_worm o w && f = j)
                 | None -> true)
            in
            if mid_wire then Float.max clock t.wire_free_at.(c_up) else clock
          end
        in
        for kk = kpos to last do
          let c = route.(kk) in
          let up = if kk = kpos then seed else e_cur.(kk - 1) +. t.hop_time.(route.(kk - 1)) in
          let wire =
            (* Wire pacing behind the flit ahead: the first entrant
               after takeover is paced by the captured wire_free_at;
               later ones by the schedule we just computed. *)
            if j = nte.(kk) then t.wire_free_at.(c) else e_prev.(kk) +. t.hop_time.(c)
          in
          let buf =
            if kk = last || j = 0 then Float.neg_infinity
            else if j - 1 < nte.(kk + 1) then clock (* freed before takeover *)
            else e_prev.(kk + 1)
          in
          let e = Float.max up (Float.max wire buf) in
          e_cur.(kk) <- e;
          (* Push time of the slow path's successful advance copy.
             Three copies of an advance reach the calendar: the wire
             pacing push (made when flit j-1 entered this channel,
             order [e_prev.(kk)]), the upstream hand-off push and its
             wire-busy retry (order [up]), and the buffer-freed push
             (made when flit j-1 departed, order [buf]).  The first
             copy to pop whose guards pass is the one the release
             rides on; the rest go stale. *)
          (* The hand-off push is made by the upstream arrive (whose
             own order is the upstream enter time); at the takeover
             seam the pusher is lost to the past and [clock] stands
             in. *)
          let handoff_o2 = if kk = kpos then cur1 else e_cur.(kk - 1) in
          let handoff_o3 = if kk = kpos then cur2 else p_cur.(kk - 1) in
          let p, p2, p3 =
            if j = 0 then (up, handoff_o2, handoff_o3)
              (* head motion is purely hand-off-driven *)
            else if up >= wire && up >= buf then
              (* Hand-off binds; on an exact wire tie the earlier
                 pacing copy pops first and succeeds, provided the
                 hand-off and the buffer hand-back beat it. *)
              if
                wire = up
                && (kk = kpos || e_cur.(kk - 1) < e_prev.(kk))
                && (buf < up || (buf = up && p_prev.(kk + 1) < e_prev.(kk)))
              then (e_prev.(kk), p_prev.(kk), p2_prev.(kk))
              else (up, handoff_o2, handoff_o3)
            else if buf > wire then (e, p_prev.(kk + 1), p2_prev.(kk + 1))
              (* buffer binds: freed push *)
            else if wire > buf then (e_prev.(kk), p_prev.(kk), p2_prev.(kk))
              (* wire binds: pacing copy *)
            else if
              (* wire = buf = e > up: the pacing copy and the
                 hand-off retry race the departing flit; a copy
                 popping before the buffer frees is dropped and the
                 freed push wins. *)
              p_prev.(kk + 1) < e_prev.(kk)
            then (e_prev.(kk), p_prev.(kk), p2_prev.(kk))
            else if e_prev.(kk) < up && p_prev.(kk + 1) < up then (up, up, handoff_o2)
              (* wire-busy retry pushed while the hand-off copy popped *)
            else (e, p_prev.(kk + 1), p2_prev.(kk + 1))
          in
          p_cur.(kk) <- p;
          p2_cur.(kk) <- p2;
          p3_cur.(kk) <- p3
        done;
        push_deliver t
          ~time:(e_cur.(last) +. t.hop_time.(route.(last)))
          ~order:e_cur.(last) ~order2:p_cur.(last) ~order3:p2_cur.(last) w j;
        if j = m - 1 then
          (* The tail frees each channel's reservation as it leaves
             that channel's buffer, i.e. as it enters the next one. *)
          for kk = 1 to last do
            if nte.(kk) < m then
              push_release t ~time:e_cur.(kk) ~order:p_cur.(kk) ~order2:p2_cur.(kk)
                ~order3:p3_cur.(kk) ~rank:w.wid
                route.(kk - 1)
          done;
        if kpos > 0 then begin
          Array.fill e_cur 0 kpos clock;
          Array.fill p_cur 0 kpos clock;
          Array.fill p2_cur 0 kpos cur1;
          Array.fill p3_cur 0 kpos cur2
        end
      end;
      Array.blit e_cur 0 e_prev 0 l;
      Array.blit p_cur 0 p_prev 0 l;
      Array.blit p2_cur 0 p2_prev 0 l;
      Array.blit p3_cur 0 p3_prev 0 l
    done;
    (* Invalidate the worm's stale calendar entries: Advances fail the
       next_to_enter check, Arrives check [streaming]. *)
    w.streaming <- true;
    for kk = 0 to last do
      nte.(kk) <- m;
      (match t.buffer.(route.(kk)) with
      | Some (o, _) when same_worm o w -> t.buffer.(route.(kk)) <- None
      | _ -> ())
    done;
    true
  end

(* Release [c] and grant it to the next queued head, scheduling that
   head's advance at the current time. *)
let release t c =
  (match t.reserved_by.(c) with
  | Some _ ->
      t.busy <- t.busy - 1;
      t.busy_time.(c) <- t.busy_time.(c) +. (t.clock -. t.reserved_since.(c))
  | None -> ());
  t.reserved_by.(c) <- None;
  if not (Queue.is_empty t.waiters.(c)) then begin
    let w, k, since = Queue.pop t.waiters.(c) in
    t.blocked_time.(c) <- t.blocked_time.(c) +. (t.clock -. since);
    t.reserved_by.(c) <- Some w;
    t.reserved_since.(c) <- t.clock;
    t.busy <- t.busy + 1;
    (* A head granted its ejection channel may stream from here. *)
    if not (k = Array.length w.route - 1 && maybe_stream t w) then
      push_advance t ~time:t.clock w 0 k
  end

let handle_advance t w j k =
  let c = w.route.(k) in
  (* Staleness / idempotence: only the expected next flit may act. *)
  if w.next_to_enter.(k) = j then begin
    let reserved = match t.reserved_by.(c) with Some o -> same_worm o w | None -> false in
    let upstream_ready =
      if k = 0 then j < w.released
      else
        match t.buffer.(w.route.(k - 1)) with
        | Some (o, f) -> same_worm o w && f = j
        | None -> false
    in
    if reserved && upstream_ready then begin
      if t.wire_free_at.(c) > t.clock then
        (* Wire still busy with the previous flit: retry exactly when
           it frees. *)
        push_advance t ~time:t.wire_free_at.(c) w j k
      else begin
        (* The landing buffer must be clear of the previous flit, and
           that flit must already have *departed* (started crossing the
           next channel) — checking occupancy alone races with a flit
           still mid-wire at the same timestamp, which would land later
           and be overwritten. *)
        let target_free =
          t.is_ejection.(c)
          || (t.buffer.(c) = None && (j = 0 || w.next_to_enter.(k + 1) >= j))
        in
        if target_free then begin
          let tau = t.hop_time.(c) in
          w.next_to_enter.(k) <- j + 1;
          t.wire_free_at.(c) <- t.clock +. tau;
          if k > 0 then begin
            let upstream = w.route.(k - 1) in
            t.buffer.(upstream) <- None;
            if j = w.flits - 1 then
              (* Tail left the upstream buffer: that channel is free
                 for the next worm. *)
              release t upstream
            else
              (* The freed buffer lets the next flit start crossing
                 the upstream channel. *)
              push_advance t ~time:t.clock w (j + 1) (k - 1)
          end;
          if j + 1 < w.flits then
            (* Wire pacing: the next flit may enter this channel once
               the wire frees (other guards re-checked then). *)
            push_advance t ~time:(t.clock +. tau) w (j + 1) k;
          push_arrive t ~time:(t.clock +. tau) w j k
        end
        (* else: buffer full; the departing flit will reschedule us. *)
      end
    end
    (* else: not our reservation yet, or the flit has not arrived
       upstream; the grant or the upstream arrival reschedules. *)
  end

let handle_arrive t w j k =
  let c = w.route.(k) in
  if t.is_ejection.(c) then begin
    (* Ejection arrivals stay live when the worm is streaming: flits
       already on the ejection channel at takeover keep their exact
       calendar entries (the fast path only schedules the rest). *)
    w.delivered_flits <- j + 1;
    w.on_flit_delivered j t.clock;
    if j = w.flits - 1 then begin
      (* Tail delivered: the ejection channel frees immediately (the
         sink absorbed every flit). *)
      release t c;
      w.on_delivered t.clock
    end
  end
  else if not w.streaming then begin
    t.buffer.(c) <- Some (w, j);
    if j = 0 then begin
      (* Head: claim the next channel. *)
      let k' = k + 1 in
      if try_reserve t w.route.(k') w k' then
        if not (k' = Array.length w.route - 1 && maybe_stream t w) then
          push_advance t ~time:t.clock w 0 k'
    end
    else push_advance t ~time:t.clock w j (k + 1)
  end

(* Batched ejection arrival: same observable effects, in the same
   order, as the ejection branch of [handle_arrive]. *)
let handle_deliver t w j =
  w.delivered_flits <- j + 1;
  w.on_flit_delivered j t.clock;
  if j = w.flits - 1 then begin
    release t w.route.(Array.length w.route - 1);
    w.on_delivered t.clock
  end

let check_route t route flits =
  if Array.length route = 0 then invalid_arg "Wormhole.submit: empty route";
  if flits < 1 then invalid_arg "Wormhole.submit: flits >= 1";
  let last = Array.length route - 1 in
  Array.iteri
    (fun i c ->
      if c < 0 || c >= Array.length t.hop_time then invalid_arg "Wormhole.submit: channel id";
      if t.is_ejection.(c) <> (i = last) then
        invalid_arg "Wormhole.submit: route must end (and only end) in an ejection channel")
    route

let make_worm t route flits on_flit_delivered on_delivered ~released =
  let wid = t.next_wid in
  t.next_wid <- wid +. 1.;
  {
    wid;
    route;
    flits;
    on_delivered;
    on_flit_delivered;
    next_to_enter = Array.make (Array.length route) 0;
    released;
    delivered_flits = 0;
    streaming = false;
  }

let submit t ~time ~route ~flits ?(on_flit_delivered = nop_flit_fn) ~on_delivered () =
  if time < t.clock then invalid_arg "Wormhole.submit: time in the past";
  check_route t route flits;
  let w = make_worm t route flits on_flit_delivered on_delivered ~released:flits in
  schedule t ~time (fun _ -> if try_reserve t route.(0) w 0 then push_advance t ~time:t.clock w 0 0)

let submit_gated t ~route ~flits ?(on_flit_delivered = nop_flit_fn) ~on_delivered () =
  check_route t route flits;
  make_worm t route flits on_flit_delivered on_delivered ~released:0

let release_flit t w j =
  if j <> w.released then invalid_arg "Wormhole.release_flit: flits must be released in order";
  if j >= w.flits then invalid_arg "Wormhole.release_flit: flit index out of range";
  w.released <- j + 1;
  if j = 0 then begin
    (* First flit: the worm now joins its injection channel's queue. *)
    if try_reserve t w.route.(0) w 0 then push_advance t ~time:t.clock w 0 0
  end
  else if not (w.released = w.flits && maybe_stream t w) then
    (* Last release of a worm whose head already owns the ejection
       channel switches to the fast path instead. *)
    push_advance t ~time:t.clock w j 0

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    let cell = Event_queue.pop_exn t.queue in
    let time = Event_queue.popped_time t.queue in
    t.clock <- time;
    t.cur_order <- cell.o1;
    t.cur_order2 <- cell.o2;
    t.events <- t.events + 1;
    let op = cell.op and w = cell.w and j = cell.j and k = cell.k and fn = cell.fn in
    free_cell t cell;
    (match op with
    | Advance -> handle_advance t w j k
    | Arrive -> handle_arrive t w j k
    | Callback -> fn time
    | Deliver -> handle_deliver t w j
    | Release -> release t k);
    true
  end

let run ?until t =
  let continue = ref true in
  while !continue do
    match until with
    | Some limit -> (
        match Event_queue.peek_time t.queue with
        | Some next when next <= limit -> ignore (step t)
        | Some _ | None -> continue := false)
    | None -> if not (step t) then continue := false
  done

let events_processed t = t.events

let busy_channels t = t.busy

let channel_busy_time t c =
  if c < 0 || c >= Array.length t.busy_time then
    invalid_arg "Wormhole.channel_busy_time: channel id";
  t.busy_time.(c)
  +. (match t.reserved_by.(c) with Some _ -> t.clock -. t.reserved_since.(c) | None -> 0.)

let channel_blocked_time t c =
  if c < 0 || c >= Array.length t.blocked_time then
    invalid_arg "Wormhole.channel_blocked_time: channel id";
  Queue.fold (fun acc (_, _, since) -> acc +. (t.clock -. since)) t.blocked_time.(c) t.waiters.(c)

let peak_queue_depth t = t.max_waiters

let delivered_flits (w : gated) = w.delivered_flits

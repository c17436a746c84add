module Metrics = Fatnet_obs.Metrics

(* A key carries its hash, mixed once per operation from both halves
   of the key: the shard takes the hash's high bits and the shard's
   table its low bits, so the two choices are independent and every
   shard can use every bucket. *)
type mkey = { mk : string; mbits : int64; mhash : int }

module Tbl = Hashtbl.Make (struct
  type t = mkey

  let equal a b = a.mhash = b.mhash && Int64.equal a.mbits b.mbits && String.equal a.mk b.mk
  let hash k = k.mhash
end)

(* SplitMix64's finaliser over the string's hash and [bits]: every
   input bit reaches every output bit, so keys that share the string
   and differ in [bits] (the daemon's λ axis) spread as well as keys
   that differ in the string at constant [bits] (a sweep's). *)
let mix key bits =
  let z = Int64.(add (mul (of_int (Hashtbl.hash key)) 0x9E3779B97F4A7C15L) bits) in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(to_int (logxor z (shift_right_logical z 31)))

let make_key key bits = { mk = key; mbits = bits; mhash = mix key bits }

(* An entry's clock slot lives beside its value, so a hit re-arms the
   entry in the same probe that finds it.  Unbounded shards never
   read the slot. *)
type 'v cell = { mutable value : 'v; slot : int }

(* A capped shard keeps a clock ring beside its table: slot i of
   [ring] names the key occupying it (for slots < [used]) and [refbit]
   holds its second-chance bit.  Unbounded shards leave the ring
   empty and never touch it. *)
type 'v shard = {
  lock : Mutex.t;
  tbl : 'v cell Tbl.t;
  ring : mkey array;
  refbit : Bytes.t;
  mutable hand : int;
  mutable used : int;
}

(* A counter resolved against one registry, swapped whole: a racing
   domain reads a consistent pair, never one registry's identity with
   another's counter. *)
type held = { reg : Metrics.t; ctr : Metrics.counter }

(* Held counters per metric, indexed by domain id: each domain
   resolves a counter once per ambient registry (a pool worker's
   registry lives for one map).  Two domains that share a slot stay
   correct and only re-resolve. *)
let held_slots = 8
let c_hits = 0
let c_misses = 1
let c_evictions = 2

type 'v t = {
  shards : 'v shard array;
  shift : int;  (* 63 - log2 (Array.length shards): the shard is the hash's top bits *)
  cap : int;  (* per-shard entry bound; 0 = unbounded *)
  names : string array;  (* hits, misses, evictions; empty without a metric *)
  held : held array;  (* counter c of domain slot d at [c * held_slots + d] *)
  hits_total : int Atomic.t;
  misses_total : int Atomic.t;
  evictions_total : int Atomic.t;
}

let rec log2_at_least n acc = if 1 lsl acc >= n then acc else log2_at_least n (acc + 1)

let no_key = { mk = ""; mbits = 0L; mhash = 0 }

let create ?(shards = 64) ?capacity ?metric () =
  if shards < 1 then invalid_arg "Memo.create: shards must be >= 1";
  let cap =
    match capacity with
    | None -> 0
    | Some c when c >= 1 -> c
    | Some _ -> invalid_arg "Memo.create: capacity must be >= 1"
  in
  let log_n = log2_at_least shards 0 in
  let names =
    match metric with
    | None -> [||]
    | Some m -> [| m ^ "_hits"; m ^ "_misses"; m ^ "_evictions" |]
  in
  let unresolved = { reg = Metrics.disabled; ctr = Metrics.counter Metrics.disabled "" } in
  {
    shards =
      Array.init (1 lsl log_n) (fun _ ->
          {
            lock = Mutex.create ();
            tbl = Tbl.create 64;
            ring = Array.make cap no_key;
            refbit = Bytes.make (max cap 1) '\000';
            hand = 0;
            used = 0;
          });
    shift = 63 - log_n;
    cap;
    names;
    held = Array.make (Array.length names * held_slots) unresolved;
    hits_total = Atomic.make 0;
    misses_total = Atomic.make 0;
    evictions_total = Atomic.make 0;
  }

let shard_of t k = t.shards.(k.mhash lsr t.shift)

(* The ambient registry's counter [c], resolved on first use per
   registry and then held: revalidated by physical equality, as the
   model kernel holds its evaluation counter. *)
let counter t c =
  let reg = Metrics.ambient () in
  let i = (c * held_slots) + ((Domain.self () :> int) land (held_slots - 1)) in
  let h = t.held.(i) in
  if h.reg == reg then h.ctr
  else begin
    let ctr = Metrics.counter reg t.names.(c) in
    t.held.(i) <- { reg; ctr };
    ctr
  end

(* Per-lookup accounting: the process-wide atomics always run; the
   ambient-registry counters only when the memo was created with a
   metric name (they are per-domain, merged by the caller's absorb,
   and dead stores when the ambient registry is disabled). *)
let record t ~hit =
  if Array.length t.names > 0 then
    Metrics.incr (counter t (if hit then c_hits else c_misses));
  Atomic.incr (if hit then t.hits_total else t.misses_total)

let record_evictions t n =
  if n > 0 then begin
    if Array.length t.names > 0 then Metrics.add (counter t c_evictions) n;
    ignore (Atomic.fetch_and_add t.evictions_total n)
  end

let find t ~key ~bits =
  let k = make_key key bits in
  let s = shard_of t k in
  Mutex.lock s.lock;
  let r =
    match Tbl.find_opt s.tbl k with
    | Some c ->
        (* Second chance: a hit re-arms the entry against the clock hand. *)
        if t.cap > 0 then Bytes.set s.refbit c.slot '\001';
        Some c.value
    | None -> None
  in
  Mutex.unlock s.lock;
  record t ~hit:(Option.is_some r);
  r

(* Under the shard lock.  Returns the number of entries evicted (0 or
   1) so the caller can bump counters outside the lock. *)
let store_locked t s k v =
  match Tbl.find_opt s.tbl k with
  | Some c ->
      c.value <- v;
      if t.cap > 0 then Bytes.set s.refbit c.slot '\001';
      0
  | None when t.cap = 0 ->
      Tbl.add s.tbl k { value = v; slot = 0 };
      0
  | None ->
      let evicted, slot =
        if s.used < t.cap then begin
          let i = s.used in
          s.used <- s.used + 1;
          (0, i)
        end
        else begin
          (* Clock sweep: skip-and-disarm referenced slots until an
             unreferenced victim turns up.  Terminates within two laps —
             the first lap clears every bit it skips. *)
          let rec sweep () =
            let i = s.hand in
            s.hand <- (if i + 1 >= t.cap then 0 else i + 1);
            if Bytes.get s.refbit i = '\001' then begin
              Bytes.set s.refbit i '\000';
              sweep ()
            end
            else i
          in
          let i = sweep () in
          Tbl.remove s.tbl s.ring.(i);
          (1, i)
        end
      in
      s.ring.(slot) <- k;
      Bytes.set s.refbit slot '\001';
      Tbl.add s.tbl k { value = v; slot };
      evicted

let store t ~key ~bits v =
  let k = make_key key bits in
  let s = shard_of t k in
  Mutex.lock s.lock;
  let ev = store_locked t s k v in
  Mutex.unlock s.lock;
  record_evictions t ev

let find_or_compute t ~key ~bits f =
  match find t ~key ~bits with
  | Some v -> v
  | None ->
      (* Outside the shard lock: a concurrent computation of the same
         key stores an identical value (determinism contract). *)
      let v = f () in
      store t ~key ~bits v;
      v

let hits t = Atomic.get t.hits_total
let misses t = Atomic.get t.misses_total
let evictions t = Atomic.get t.evictions_total
let capacity t = if t.cap = 0 then None else Some t.cap

let hit_rate t =
  let h = hits t and m = misses t in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let length t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let n = Tbl.length s.tbl in
      Mutex.unlock s.lock;
      acc + n)
    0 t.shards

let clear t =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      Tbl.reset s.tbl;
      s.used <- 0;
      s.hand <- 0;
      Bytes.fill s.refbit 0 (Bytes.length s.refbit) '\000';
      Mutex.unlock s.lock)
    t.shards

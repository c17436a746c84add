module Metrics = Fatnet_obs.Metrics
module Log = Fatnet_obs.Log

(* The coarse exception taxonomy of the [kind] label. *)
let exn_kind = function
  | Sys_error _ -> "sys_error"
  | Fault.Injected _ -> "injected"
  | Out_of_memory -> "out_of_memory"
  | _ -> "other"

(* The whole state machine is one atomic int:
     0   cache up
    -1   down for good (batch semantics — a sweep never recovers)
     n>0 down, n more gated operations to skip before a re-probe
   A trip exchanges in the down value and warns only when it observed
   the up state (one warning per trip, however many domains race).
   [ready] decrements the countdown by CAS; the call that takes it to
   zero is the last of the n skips and re-opens the gate
   optimistically — the next gated operation is the re-probe, and if
   the disk is still broken, its error trips the gate again. *)
type t = {
  state : int Atomic.t;
  recover_after : int option;
  metrics : Metrics.t;
  context : string;
  trips : int Atomic.t;
}

let create ?recover_after ?(metrics = Metrics.disabled) ?(context = "for this sweep")
    ~enabled () =
  (match recover_after with
  | Some n when n < 1 -> invalid_arg "Cache_gate.create: recover_after must be >= 1"
  | _ -> ());
  {
    state = Atomic.make (if enabled then 0 else -1);
    recover_after;
    metrics;
    context;
    trips = Atomic.make 0;
  }

let rec ready t =
  match Atomic.get t.state with
  | 0 -> true
  | -1 -> false
  | n ->
      if Atomic.compare_and_set t.state n (n - 1) then begin
        if n = 1 then
          (* Countdown exhausted: the CAS left the gate at 0 (up), so
             the next gated operation re-probes the cache. *)
          if Metrics.is_enabled t.metrics then
            Metrics.incr
              (Metrics.counter t.metrics "cache_reprobes"
                 ~help:"Cache re-probe attempts after degradation");
        false
      end
      else ready t

let trip t ~op exn =
  if Metrics.is_enabled t.metrics then
    Metrics.incr
      (Metrics.counter t.metrics "cache_errors"
         ~labels:[ ("op", op); ("kind", exn_kind exn) ]
         ~help:"Point-cache I/O failures, by operation and exception kind");
  let down = match t.recover_after with None -> -1 | Some n -> n in
  if Atomic.exchange t.state down = 0 then begin
    Atomic.incr t.trips;
    Log.warn "point cache disabled %s (cache %s failed: %s)" t.context op
      (Printexc.to_string exn)
  end

let degraded t = Atomic.get t.state <> 0
let trips t = Atomic.get t.trips

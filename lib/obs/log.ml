type level = Error | Warn | Info

let severity = function Error -> 2 | Warn -> 1 | Info -> 0

let lock = Mutex.create ()
let threshold_ref = Atomic.make Info

let set_threshold l = Atomic.set threshold_ref l
let threshold () = Atomic.get threshold_ref

let hooks : ((unit -> unit) * (unit -> unit)) option ref = ref None

let set_status_hooks ~clear ~redraw =
  Mutex.lock lock;
  hooks := Some (clear, redraw);
  Mutex.unlock lock

let clear_status_hooks () =
  Mutex.lock lock;
  hooks := None;
  Mutex.unlock lock

let with_print_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let emit lvl msg =
  if severity lvl >= severity (Atomic.get threshold_ref) then begin
    Mutex.lock lock;
    (match !hooks with Some (clear, _) -> clear () | None -> ());
    let prefix = match lvl with Error -> "error: " | Warn -> "warning: " | Info -> "" in
    output_string stderr (prefix ^ msg ^ "\n");
    flush stderr;
    (match !hooks with Some (_, redraw) -> redraw () | None -> ());
    Mutex.unlock lock
  end

let err fmt = Printf.ksprintf (emit Error) fmt
let warn fmt = Printf.ksprintf (emit Warn) fmt
let info fmt = Printf.ksprintf (emit Info) fmt

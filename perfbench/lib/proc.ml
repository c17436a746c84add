(* Child processes: spawn with redirected stdio, read a peak resident
   set, and always reap.  Every child is registered until it is waited
   for, and an exit hook terminates and reaps any still running, so
   the benchmark never leaves a process behind. *)

let now = Fatnet_obs.Metrics.now_seconds

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let open_out_file path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644

(* [cpus] pins the child to those CPUs (a taskset list such as "1"). *)
let spawn ?stdin_file ?cpus ~stdout_file ~stderr_file prog args =
  let prog, args =
    match cpus with Some c -> ("taskset", [ "-c"; c; prog ] @ args) | None -> (prog, args)
  in
  let fd_in = Unix.openfile (Option.value stdin_file ~default:"/dev/null") [ Unix.O_RDONLY ] 0 in
  let fd_out = open_out_file stdout_file in
  let fd_err = open_out_file stderr_file in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ fd_in; fd_out; fd_err ])
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) fd_in fd_out fd_err)
  in
  Hashtbl.replace live pid ();
  pid

(* VmHWM, the kernel's high-water mark of the resident set, in kB;
   [None] once the process has exited. *)
let peak_rss_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "VmHWM"; v ] -> (
                 match String.split_on_char ' ' (String.trim v) with
                 | kb :: _ -> int_of_string_opt kb
                 | [] -> None)
             | _ -> None)

let rec waitpid_nointr flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nointr flags pid

let reaped pid status =
  Hashtbl.remove live pid;
  status

(* A blocking wait, for timings that polling would blur. *)
let wait_blocking pid = reaped pid (snd (waitpid_nointr [] pid))

(* SIGTERM, then SIGKILL if the child has not exited after 10 s. *)
let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec go () =
    match waitpid_nointr [ Unix.WNOHANG ] pid with
    | 0, _ when now () > deadline ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        snd (waitpid_nointr [] pid)
    | 0, _ ->
        Unix.sleepf 0.005;
        go ()
    | _, status -> status
  in
  reaped pid (go ())

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (waitpid_nointr [] pid))
        (Hashtbl.copy live))

(* Time the hypervisor took from this VM's CPUs, in seconds, summed
   over CPUs: the "steal" column of /proc/stat's first line (in
   USER_HZ ticks, 100 per second).  0 where it cannot be read. *)
let steal_seconds () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> 0.
  | None -> 0.
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          Option.value (float_of_string_opt steal) ~default:0. /. 100.
      | _ -> 0.)

let exited_ok = function Unix.WEXITED 0 -> true | _ -> false

let describe = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* Pin the calling process to [cpus]. *)
let pin_self cpus =
  let pid =
    spawn ~stdout_file:"/dev/null" ~stderr_file:"/dev/null" "taskset"
      [ "-p"; "-c"; cpus; string_of_int (Unix.getpid ()) ]
  in
  exited_ok (wait_blocking pid)

(* A busy loop at SCHED_IDLE priority on [cpu]: it only runs when
   nothing else there wants to, and any waking task preempts it at
   once, but it keeps the (virtual) CPU from halting.  On a VM a halted
   vCPU wakes through the hypervisor, which adds a variable delay to
   every request that finds the daemon idle. *)
let start_keeper cpu =
  spawn ~stdout_file:"/dev/null" ~stderr_file:"/dev/null" "chrt"
    [ "--idle"; "0"; "taskset"; "-c"; cpu; "sh"; "-c"; "while :; do :; done" ]

(** Tiny leveled stderr logger, so warnings and the live progress
    line never interleave mid-line.

    Every diagnostic line the library emits (cache degradation,
    fault-injection notices, "wrote FILE" confirmations) goes through
    one mutex-guarded emitter.  A status-line renderer (the sweep
    progress reporter) registers clear/redraw hooks: the emitter
    clears the status line, prints the log line, and redraws — no
    torn output, whichever domain logs.

    Text format matches the CLI's existing conventions: [error: msg],
    [warning: msg], and info lines verbatim. *)

type level = Error | Warn | Info

val set_threshold : level -> unit
(** Drop messages below this severity (default [Info] = everything;
    [--quiet] sets [Error]). *)

val threshold : unit -> level

val err : ('a, unit, string, unit) format4 -> 'a
val warn : ('a, unit, string, unit) format4 -> 'a
val info : ('a, unit, string, unit) format4 -> 'a

(** {1 Status-line coordination} *)

val set_status_hooks : clear:(unit -> unit) -> redraw:(unit -> unit) -> unit
(** Install the active status line's hooks: [clear] erases it before
    a log line prints, [redraw] repaints it after.  One status line
    at a time (last writer wins). *)

val clear_status_hooks : unit -> unit

val with_print_lock : (unit -> unit) -> unit
(** Run [f] holding the emitter's lock — how the status line itself
    paints without racing a concurrent log line. *)

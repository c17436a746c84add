(** Minimal JSON support shared by the observability exporters.

    One hand-rolled reader/writer (objects, arrays, strings, numbers,
    booleans, null) serves every side of lib/obs that speaks JSON —
    metrics snapshots, Chrome trace events, the bench-regression
    reporter — so the repo needs no external JSON dependency and every
    parser reports errors the same way.  It is intentionally {e not} a
    general-purpose JSON library: no streaming, no arbitrary-precision
    numbers, [\u] escapes above U+00FF decode to [?]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

exception Parse of string
(** Raised by {!parse} with a byte-offset-qualified message. *)

val parse : string -> t
(** Parse a complete document; raises {!Parse} on malformed input or
    trailing garbage. *)

val parse_result : string -> (t, string) result
(** {!parse} with the error as a value. *)

val member : string -> t -> t option
(** First member of that name when the value is an object. *)

(** {1 Writer helpers} *)

val buf_add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string, escaping quotes, backslashes,
    newlines and other control characters. *)

val shortest_float : float -> string
(** Shortest decimal representation that parses back to exactly the
    given (finite) float: the first of [%.15g], [%.16g] and [%.17g]
    that round-trips, byte for byte what [Printf] prints, formatted
    by the runtime primitive [Printf] reaches without [Printf]'s
    per-call format interpretation.  An integer of magnitude below
    1e15 (but not −0) is printed by [string_of_int], which gives the
    same bytes as [%.15g]. *)

val to_string : t -> string
(** Render a document, newline-terminated.  A container holding only
    scalars goes on one line; any other container puts each member or
    element on its own line, indented two spaces per level.  Finite
    numbers use {!shortest_float}, so they parse back bit for bit;
    non-finite ones are written as the strings ["nan"], ["inf"] and
    ["-inf"] (the metrics-snapshot and wire convention), which the
    reader of the document maps back. *)

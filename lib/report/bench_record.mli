(** The bench record: the one schema every [BENCH_<suite>.json] uses,
    its reader, and the gate check that both [bench/main.exe] and
    [fatnet bench report] run.

    A record names its suite, says what was measured ([title], [note])
    and on what ([host]), lists its measurements as rows, and declares
    its gates.  The bench writes a record and exits 1 when one of its
    own gates fails; [fatnet bench report] checks a fresh record
    against the union of its own gates and the committed baseline's,
    so a fresh file cannot relax a bound by leaving its gate out.

    On disk (written through {!Fatnet_obs.Json.to_string}):
    {v
{
  "suite": "tail",
  "title": "...", "note": "...",
  "host": {"recommended_domains": 2, "ocaml": "5.1.1"},
  "rows": [
    {"name": "worst_overhead_fraction", "value": 0.0003, "unit": "fraction", "better": "lower"},
    ...
  ],
  "gates": [{"metric": "worst_overhead_fraction", "max": 0.05}]
}
    v}
    A non-finite row value is the string ["inf"], ["-inf"] or ["nan"];
    a host fact the record does not know is [null]. *)

type better =
  | Higher
  | Lower
  | Info
      (** Context, not a tracked number: sizes, counts, detail rows and
          rows measured at more domains than the host recommends.  An
          info row is never guarded. *)

type row = { name : string; value : float; unit : string; better : better }

type bound = Max of float | Min of float  (** inclusive *)

type gate = { metric : string; bound : bound }

type host = { recommended_domains : int option; ocaml : string option }

type t = {
  suite : string;
  title : string;
  note : string;
  host : host;
  rows : row list;  (** names are unique *)
  gates : gate list;
}

val file_name : string -> string
(** [file_name suite] is ["BENCH_" ^ suite ^ ".json"]. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Never raises: malformed JSON, a missing or mistyped field, an
    unknown [better] tag, a gate with no finite bound or with both
    bounds, and a repeated row name are all [Error]. *)

val read : string -> (t, string) result
(** [of_string] on a file's contents; the error names the path. *)

val write : dir:string -> t -> string
(** Write [dir/BENCH_<suite>.json] and return its path. *)

val value : t -> string -> float option
(** The named row's value. *)

val check : t -> gate -> string option
(** [None] when the record meets the gate, else why not.  A metric the
    record lacks, or whose value is not finite, fails. *)

val report : baseline:string -> dir:string option -> guard_tol:float option -> int
(** [fatnet bench report]: for every [BENCH_*.json] in [baseline] or
    [dir], check the fresh record ([dir]'s, or the baseline's when
    [dir] has none) against the union of both records' gates, and
    with [guard_tol] fail a [higher]/[lower] row that moved against
    its direction by more than that fraction of the baseline.  Prints
    a table of every gated or non-info row and returns the exit code:
    0 when every check passes, 1 on a failure, an unreadable record or
    no record at all. *)

(* The registry is a cold-path table of hot-path records.  Recording
   never touches the table: callers hold the instrument, and an
   instrument is a bare mutable record (or an [Atomic.t] for
   counters), so the recording cost is one store.  A disabled
   registry hands out the static null sinks below, so instrumented
   code needs no [if enabled] branches — disabled-mode recording is a
   dead store into a shared dummy (benign: the nulls are never
   snapshotted). *)

type counter = int Atomic.t

type gauge = { mutable g : float }

type histogram = {
  h_lo : float;
  h_hi : float;
  h_counts : int array;
  mutable h_under : int;
  mutable h_over : int;
  mutable h_total : int;
  mutable h_sum : float;
}

let null_counter : counter = Atomic.make 0
let null_gauge = { g = 0. }

let null_histogram =
  { h_lo = 0.; h_hi = 1.; h_counts = [| 0 |]; h_under = 0; h_over = 0; h_total = 0; h_sum = 0. }

type instrument = C of counter | G of gauge | H of histogram

type item = { i_name : string; i_labels : (string * string) list; i_help : string; inst : instrument }

(* A series name carries one kind (and, for histograms, one bucket
   layout) across every label set: Prometheus forbids a family with
   two types, so registering `foo` as a counter and `foo{x="1"}` as a
   gauge must fail loudly at registration instead of producing an
   exposition the scraper rejects (or silently letting one kind
   win). *)
type shape = S_counter | S_gauge | S_histogram of float * float * int

let shape_name = function
  | S_counter -> "counter"
  | S_gauge -> "gauge"
  | S_histogram _ -> "histogram"

type t = {
  enabled : bool;
  lock : Mutex.t;
  items : (string, item) Hashtbl.t; (* canonical identity -> item *)
  kinds : (string, shape) Hashtbl.t; (* series name -> its one shape *)
  mutable meta : (string * string) list;
}

let create () =
  {
    enabled = true;
    lock = Mutex.create ();
    items = Hashtbl.create 64;
    kinds = Hashtbl.create 64;
    meta = [];
  }

let disabled =
  {
    enabled = false;
    lock = Mutex.create ();
    items = Hashtbl.create 1;
    kinds = Hashtbl.create 1;
    meta = [];
  }

let is_enabled t = t.enabled

let canonical_labels labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

let identity name labels =
  String.concat "\x00" (name :: List.concat_map (fun (k, v) -> [ k; v ]) labels)

(* Find-or-create under the registration lock; [make] builds the
   instrument, [extract] projects the expected kind back out. *)
let register t name labels help ~shape make extract wrong =
  let labels = canonical_labels labels in
  let key = identity name labels in
  Mutex.lock t.lock;
  let outcome =
    match Hashtbl.find_opt t.kinds name with
    | Some prior when prior <> shape -> Error prior
    | _ ->
        if not (Hashtbl.mem t.kinds name) then Hashtbl.add t.kinds name shape;
        let item =
          match Hashtbl.find_opt t.items key with
          | Some item -> item
          | None ->
              let item = { i_name = name; i_labels = labels; i_help = help; inst = make () } in
              Hashtbl.add t.items key item;
              item
        in
        Ok item
  in
  Mutex.unlock t.lock;
  match outcome with
  | Error prior ->
      if shape_name prior <> shape_name shape then
        invalid_arg
          (Printf.sprintf
             "Metrics.%s: duplicate series %s already registered as a %s (a series name has \
              one kind)"
             wrong name (shape_name prior))
      else
        invalid_arg
          (Printf.sprintf "Metrics.histogram: %s already registered with another bucket layout"
             name)
  | Ok item -> (
      match extract item.inst with
      | Some v -> v
      | None ->
          (* Unreachable: the name-level shape check above already
             rejected kind mismatches. *)
          invalid_arg
            (Printf.sprintf "Metrics.%s: %s already registered with another kind" wrong name))

let counter ?(help = "") ?(labels = []) t name =
  if not t.enabled then null_counter
  else
    register t name labels help ~shape:S_counter
      (fun () -> C (Atomic.make 0))
      (function C c -> Some c | _ -> None)
      "counter"

let gauge ?(help = "") ?(labels = []) t name =
  if not t.enabled then null_gauge
  else
    register t name labels help ~shape:S_gauge
      (fun () -> G { g = 0. })
      (function G g -> Some g | _ -> None)
      "gauge"

let histogram ?(help = "") ?(labels = []) ~lo ~hi ~bins t name =
  (* Non-finite bounds would poison every bucket-edge computation and
     force the JSON exporter to emit bare NaN/Inf for [lo]/[hi]. *)
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Metrics.histogram: requires finite lo and hi";
  if not (lo < hi) then invalid_arg "Metrics.histogram: requires lo < hi";
  if bins < 1 then invalid_arg "Metrics.histogram: requires bins >= 1";
  if not t.enabled then null_histogram
  else
    register t name labels help
      ~shape:(S_histogram (lo, hi, bins))
      (fun () ->
        H { h_lo = lo; h_hi = hi; h_counts = Array.make bins 0; h_under = 0; h_over = 0; h_total = 0; h_sum = 0. })
      (function H h -> Some h | _ -> None)
      "histogram"

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let set g v = g.g <- v
let set_max g v = if v > g.g then g.g <- v

let observe h x =
  (* Reject samples that can only come from a defective measurement:
     NaN would poison [h_sum] forever, and a negative sample into a
     non-negative-range histogram means a broken clock (durations are
     fed here), not data.  Histograms whose range starts
     below zero still accept negative values. *)
  if Float.is_nan x || (x < 0. && h.h_lo >= 0.) then ()
  else begin
    h.h_total <- h.h_total + 1;
    h.h_sum <- h.h_sum +. x;
    if x < h.h_lo then h.h_under <- h.h_under + 1
    else if x >= h.h_hi then h.h_over <- h.h_over + 1
    else begin
      let bins = Array.length h.h_counts in
      let w = (h.h_hi -. h.h_lo) /. float_of_int bins in
      let i = int_of_float ((x -. h.h_lo) /. w) in
      let i = if i >= bins then bins - 1 else i in
      h.h_counts.(i) <- h.h_counts.(i) + 1
    end
  end

(* ---- clock ---- *)

(* Monotonic, shared with [Trace]: durations must survive wall-clock
   steps (NTP slews, manual resets) in a long-running process.  The
   epoch is arbitrary — only differences mean anything, which is all
   the callers (pool busy accounting, benches) compute. *)
let now_seconds () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* ---- meta ---- *)

let set_meta t k v =
  if t.enabled then begin
    Mutex.lock t.lock;
    t.meta <- (k, v) :: List.remove_assoc k t.meta;
    Mutex.unlock t.lock
  end

(* ---- ambient registry ---- *)

let ambient_key = Domain.DLS.new_key (fun () -> disabled)

let ambient () = Domain.DLS.get ambient_key
let set_ambient t = Domain.DLS.set ambient_key t

let with_ambient t f =
  let prev = ambient () in
  set_ambient t;
  Fun.protect ~finally:(fun () -> set_ambient prev) f

(* ---- snapshots ---- *)

module Snapshot = struct
  type histo = {
    lo : float;
    hi : float;
    counts : int array;
    underflow : int;
    overflow : int;
    sum : float;
    count : int;
  }

  type value = Counter of int | Gauge of float | Histogram of histo

  type series = {
    name : string;
    labels : (string * string) list;
    help : string;
    value : value;
  }

  type t = { meta : (string * string) list; series : series list }

  let empty = { meta = []; series = [] }

  let compare_series a b =
    match String.compare a.name b.name with
    | 0 -> compare a.labels b.labels
    | c -> c

  let sort t =
    {
      meta = List.sort (fun (a, _) (b, _) -> String.compare a b) t.meta;
      series = List.sort compare_series t.series;
    }

  let find ?(labels = []) t name =
    let labels = canonical_labels labels in
    List.find_opt (fun s -> s.name = name && s.labels = labels) t.series
    |> Option.map (fun s -> s.value)

  let merge_value name a b =
    match (a, b) with
    | Counter x, Counter y -> Counter (x + y)
    | Gauge x, Gauge y -> Gauge (if y > x then y else x)
    | Histogram x, Histogram y ->
        if x.lo <> y.lo || x.hi <> y.hi || Array.length x.counts <> Array.length y.counts then
          invalid_arg
            (Printf.sprintf "Metrics.Snapshot.merge: bucket layout mismatch for %s" name)
        else
          Histogram
            {
              lo = x.lo;
              hi = x.hi;
              counts = Array.map2 ( + ) x.counts y.counts;
              underflow = x.underflow + y.underflow;
              overflow = x.overflow + y.overflow;
              sum = x.sum +. y.sum;
              count = x.count + y.count;
            }
    | _ -> invalid_arg (Printf.sprintf "Metrics.Snapshot.merge: kind mismatch for %s" name)

  let merge a b =
    let tbl = Hashtbl.create 64 in
    let put s =
      let key = identity s.name s.labels in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.replace tbl key s
      | Some prev ->
          Hashtbl.replace tbl key
            {
              prev with
              value = merge_value s.name prev.value s.value;
              help = (if prev.help = "" then s.help else prev.help);
            }
    in
    List.iter put a.series;
    List.iter put b.series;
    let meta =
      List.fold_left
        (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc)
        a.meta b.meta
    in
    sort { meta; series = Hashtbl.fold (fun _ s acc -> s :: acc) tbl [] }

  (* ---- JSON ---- *)

  let buf_add_json_string = Json.buf_add_string

  (* Non-finite floats are not valid JSON numbers; encode them as
     tagged strings and accept both forms on the way back in.
     Finite floats use the shared shortest round-trip encoding. *)
  let shortest_float = Json.shortest_float

  let buf_add_float b f =
    if Float.is_nan f then Buffer.add_string b "\"nan\""
    else if f = Float.infinity then Buffer.add_string b "\"inf\""
    else if f = Float.neg_infinity then Buffer.add_string b "\"-inf\""
    else Buffer.add_string b (shortest_float f)

  let buf_add_kv_list b pairs =
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        buf_add_json_string b k;
        Buffer.add_string b ": ";
        buf_add_json_string b v)
      pairs;
    Buffer.add_char b '}'

  let schema_version = 1

  let to_json t =
    let t = sort t in
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf "{\n  \"fatnet_metrics_version\": %d,\n  \"meta\": " schema_version);
    buf_add_kv_list b t.meta;
    Buffer.add_string b ",\n  \"series\": [";
    List.iteri
      (fun i s ->
        Buffer.add_string b (if i = 0 then "\n" else ",\n");
        Buffer.add_string b "    { \"name\": ";
        buf_add_json_string b s.name;
        Buffer.add_string b ", \"labels\": ";
        buf_add_kv_list b s.labels;
        if s.help <> "" then begin
          Buffer.add_string b ", \"help\": ";
          buf_add_json_string b s.help
        end;
        (match s.value with
        | Counter n -> Buffer.add_string b (Printf.sprintf ", \"type\": \"counter\", \"value\": %d" n)
        | Gauge g ->
            Buffer.add_string b ", \"type\": \"gauge\", \"value\": ";
            buf_add_float b g
        | Histogram h ->
            (* [lo]/[hi] are finite for natively created histograms
               (enforced at registration) but a snapshot can also come
               from [of_json]: tag them like every other float so the
               output is always valid JSON. *)
            Buffer.add_string b ", \"type\": \"histogram\", \"lo\": ";
            buf_add_float b h.lo;
            Buffer.add_string b ", \"hi\": ";
            buf_add_float b h.hi;
            Buffer.add_string b
              (Printf.sprintf ", \"counts\": [%s], \"underflow\": %d, \"overflow\": %d, \"sum\": "
                 (String.concat ", " (Array.to_list (Array.map string_of_int h.counts)))
                 h.underflow h.overflow);
            buf_add_float b h.sum;
            Buffer.add_string b (Printf.sprintf ", \"count\": %d" h.count));
        Buffer.add_string b " }")
      t.series;
    Buffer.add_string b "\n  ]\n}\n";
    Buffer.contents b

  (* ---- JSON reader (shared {!Json} parser, snapshot decoding) ---- *)

  exception Parse of string

  let decode_float name = function
    | Json.Num f -> f
    | Json.Str "nan" -> Float.nan
    | Json.Str "inf" -> Float.infinity
    | Json.Str "-inf" -> Float.neg_infinity
    | _ -> raise (Parse (name ^ ": expected a float"))

  let decode_int name = function
    | Json.Num f when Float.is_integer f -> int_of_float f
    | _ -> raise (Parse (name ^ ": expected an integer"))

  let decode_string name = function
    | Json.Str s -> s
    | _ -> raise (Parse (name ^ ": expected a string"))

  let decode_kv_list name = function
    | Json.Obj kvs -> List.map (fun (k, v) -> (k, decode_string name v)) kvs
    | _ -> raise (Parse (name ^ ": expected an object of strings"))

  let field name kvs = List.assoc_opt name kvs

  let require name kvs =
    match field name kvs with
    | Some v -> v
    | None -> raise (Parse ("missing field " ^ name))

  let decode_series = function
    | Json.Obj kvs ->
        let name = decode_string "name" (require "name" kvs) in
        let labels =
          match field "labels" kvs with
          | Some l -> canonical_labels (decode_kv_list "labels" l)
          | None -> []
        in
        let help =
          match field "help" kvs with Some h -> decode_string "help" h | None -> ""
        in
        let value =
          match decode_string "type" (require "type" kvs) with
          | "counter" -> Counter (decode_int "value" (require "value" kvs))
          | "gauge" -> Gauge (decode_float "value" (require "value" kvs))
          | "histogram" ->
              let counts =
                match require "counts" kvs with
                | Json.Arr xs -> Array.of_list (List.map (decode_int "counts") xs)
                | _ -> raise (Parse "counts: expected an array")
              in
              Histogram
                {
                  lo = decode_float "lo" (require "lo" kvs);
                  hi = decode_float "hi" (require "hi" kvs);
                  counts;
                  underflow = decode_int "underflow" (require "underflow" kvs);
                  overflow = decode_int "overflow" (require "overflow" kvs);
                  sum = decode_float "sum" (require "sum" kvs);
                  count = decode_int "count" (require "count" kvs);
                }
          | other -> raise (Parse (Printf.sprintf "type: unknown metric kind %S" other))
        in
        { name; labels; help; value }
    | _ -> raise (Parse "expected an object")

  (* Decode errors carry the failing series' position (and name, once
     known), so a bad snapshot reports like the .scn parser's
     `error: file: field: msg` once the caller prefixes the path:
     `error: m.json: series[3] (sim_events): type: unknown metric
     kind "ratio"`. *)
  let decode_series_at i s =
    let where =
      match s with
      | Json.Obj kvs -> (
          match field "name" kvs with
          | Some (Json.Str n) -> Printf.sprintf "series[%d] (%s)" i n
          | _ -> Printf.sprintf "series[%d]" i)
      | _ -> Printf.sprintf "series[%d]" i
    in
    try decode_series s with Parse msg -> raise (Parse (where ^ ": " ^ msg))

  let of_json text =
    match Json.parse text with
    | exception Json.Parse msg -> Error msg
    | Json.Obj kvs -> (
        try
          (match field "fatnet_metrics_version" kvs with
          | Some v ->
              let v = decode_int "fatnet_metrics_version" v in
              if v <> schema_version then
                raise (Parse (Printf.sprintf "unsupported schema version %d" v))
          | None -> raise (Parse "missing field fatnet_metrics_version"));
          let meta =
            match field "meta" kvs with
            | Some m -> decode_kv_list "meta" m
            | None -> []
          in
          let series =
            match field "series" kvs with
            | Some (Json.Arr xs) -> List.mapi decode_series_at xs
            | Some _ -> raise (Parse "series: expected an array")
            | None -> []
          in
          Ok (sort { meta; series })
        with Parse msg -> Error msg)
    | _ -> Error "expected a top-level object"

  (* ---- Prometheus text exposition ---- *)

  let prom_escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* HELP text escapes only [\] and newline — the exposition format
     leaves double quotes alone outside label values. *)
  let prom_escape_help s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let prom_float f =
    if Float.is_nan f then "NaN"
    else if f = Float.infinity then "+Inf"
    else if f = Float.neg_infinity then "-Inf"
    else shortest_float f

  let prom_labels = function
    | [] -> ""
    | labels ->
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) labels)
        ^ "}"

  let to_prometheus t =
    let t = sort t in
    let b = Buffer.create 4096 in
    let headers = Hashtbl.create 16 in
    let header name kind help =
      if not (Hashtbl.mem headers name) then begin
        Hashtbl.add headers name ();
        if help <> "" then Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name (prom_escape_help help));
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
      end
    in
    List.iter
      (fun s ->
        match s.value with
        | Counter n ->
            header s.name "counter" s.help;
            Buffer.add_string b (Printf.sprintf "%s%s %d\n" s.name (prom_labels s.labels) n)
        | Gauge g ->
            header s.name "gauge" s.help;
            Buffer.add_string b
              (Printf.sprintf "%s%s %s\n" s.name (prom_labels s.labels) (prom_float g))
        | Histogram h ->
            header s.name "histogram" s.help;
            let bins = Array.length h.counts in
            let w = (h.hi -. h.lo) /. float_of_int bins in
            (* Cumulative buckets; underflow folds into the first. *)
            let cum = ref h.underflow in
            for i = 0 to bins - 1 do
              cum := !cum + h.counts.(i);
              let le = h.lo +. (float_of_int (i + 1) *. w) in
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" s.name
                   (prom_labels (s.labels @ [ ("le", prom_float le) ]))
                   !cum)
            done;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" s.name
                 (prom_labels (s.labels @ [ ("le", "+Inf") ]))
                 h.count);
            Buffer.add_string b
              (Printf.sprintf "%s_sum%s %s\n" s.name (prom_labels s.labels) (prom_float h.sum));
            Buffer.add_string b
              (Printf.sprintf "%s_count%s %d\n" s.name (prom_labels s.labels) h.count))
      t.series;
    Buffer.contents b
end

let snapshot t =
  if not t.enabled then Snapshot.empty
  else begin
    Mutex.lock t.lock;
    let series =
      Hashtbl.fold
        (fun _ item acc ->
          let value =
            match item.inst with
            | C c -> Snapshot.Counter (Atomic.get c)
            | G g -> Snapshot.Gauge g.g
            | H h ->
                Snapshot.Histogram
                  {
                    Snapshot.lo = h.h_lo;
                    hi = h.h_hi;
                    counts = Array.copy h.h_counts;
                    underflow = h.h_under;
                    overflow = h.h_over;
                    sum = h.h_sum;
                    count = h.h_total;
                  }
          in
          { Snapshot.name = item.i_name; labels = item.i_labels; help = item.i_help; value }
          :: acc)
        t.items []
    in
    let meta = t.meta in
    Mutex.unlock t.lock;
    Snapshot.sort { Snapshot.meta; series }
  end

let absorb t (snap : Snapshot.t) =
  if t.enabled then begin
    List.iter
      (fun (s : Snapshot.series) ->
        match s.Snapshot.value with
        | Snapshot.Counter n -> add (counter ~help:s.Snapshot.help ~labels:s.Snapshot.labels t s.Snapshot.name) n
        | Snapshot.Gauge g -> set_max (gauge ~help:s.Snapshot.help ~labels:s.Snapshot.labels t s.Snapshot.name) g
        | Snapshot.Histogram h ->
            let dst =
              histogram ~help:s.Snapshot.help ~labels:s.Snapshot.labels ~lo:h.Snapshot.lo
                ~hi:h.Snapshot.hi
                ~bins:(Array.length h.Snapshot.counts)
                t s.Snapshot.name
            in
            Array.iteri (fun i c -> dst.h_counts.(i) <- dst.h_counts.(i) + c) h.Snapshot.counts;
            dst.h_under <- dst.h_under + h.Snapshot.underflow;
            dst.h_over <- dst.h_over + h.Snapshot.overflow;
            dst.h_total <- dst.h_total + h.Snapshot.count;
            dst.h_sum <- dst.h_sum +. h.Snapshot.sum)
      snap.Snapshot.series;
    List.iter (fun (k, v) -> set_meta t k v) snap.Snapshot.meta
  end

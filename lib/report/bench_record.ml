module Json = Fatnet_obs.Json

type better = Higher | Lower | Info
type row = { name : string; value : float; unit : string; better : better }
type bound = Max of float | Min of float
type gate = { metric : string; bound : bound }
type host = { recommended_domains : int option; ocaml : string option }

type t = {
  suite : string;
  title : string;
  note : string;
  host : host;
  rows : row list;
  gates : gate list;
}

let file_name suite = "BENCH_" ^ suite ^ ".json"

let better_tag = function Higher -> "higher" | Lower -> "lower" | Info -> "info"

let to_string r =
  let opt f = function Some x -> f x | None -> Json.Null in
  let row x =
    Json.Obj
      [
        ("name", Str x.name);
        ("value", Num x.value);
        ("unit", Str x.unit);
        ("better", Str (better_tag x.better));
      ]
  in
  let gate g =
    let key, b = match g.bound with Max b -> ("max", b) | Min b -> ("min", b) in
    Json.Obj [ ("metric", Str g.metric); (key, Num b) ]
  in
  Json.to_string
    (Obj
       [
         ("suite", Str r.suite);
         ("title", Str r.title);
         ("note", Str r.note);
         ( "host",
           Obj
             [
               ( "recommended_domains",
                 opt (fun d -> Json.Num (float_of_int d)) r.host.recommended_domains );
               ("ocaml", opt (fun s -> Json.Str s) r.host.ocaml);
             ] );
         ("rows", Arr (List.map row r.rows));
         ("gates", Arr (List.map gate r.gates));
       ])

(* The reader bails out through [Bad]; [of_string] is its only
   boundary, so no exception escapes the module. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let field name j =
  match Json.member name j with Some v -> v | None -> bad "missing field %S" name

let str name j =
  match field name j with Json.Str s -> s | _ -> bad "field %S is not a string" name

let arr name j =
  match field name j with Json.Arr l -> l | _ -> bad "field %S is not an array" name

let of_json j =
  let row j =
    let name = str "name" j in
    let value =
      match field "value" j with
      | Json.Num f -> f
      | Json.Str "inf" -> Float.infinity
      | Json.Str "-inf" -> Float.neg_infinity
      | Json.Str "nan" -> Float.nan
      | _ -> bad "row %S: value is not a number" name
    in
    let better =
      match str "better" j with
      | "higher" -> Higher
      | "lower" -> Lower
      | "info" -> Info
      | s -> bad "row %S: better is %S, not higher, lower or info" name s
    in
    { name; value; unit = str "unit" j; better }
  in
  let gate j =
    let metric = str "metric" j in
    let bound =
      match (Json.member "max" j, Json.member "min" j) with
      | Some (Json.Num b), None when Float.is_finite b -> Max b
      | None, Some (Json.Num b) when Float.is_finite b -> Min b
      | _ -> bad "gate %S needs exactly one finite max or min" metric
    in
    { metric; bound }
  in
  let host = field "host" j in
  let recommended_domains =
    match field "recommended_domains" host with
    | Json.Null -> None
    | Json.Num f when f >= 1. && Float.of_int (Float.to_int f) = f -> Some (Float.to_int f)
    | _ -> bad "host: recommended_domains is not a positive integer or null"
  in
  let ocaml =
    match field "ocaml" host with
    | Json.Null -> None
    | Json.Str s -> Some s
    | _ -> bad "host: ocaml is not a string or null"
  in
  let rows = List.map row (arr "rows" j) in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if Hashtbl.mem seen r.name then bad "row %S appears twice" r.name;
      Hashtbl.add seen r.name ())
    rows;
  {
    suite = str "suite" j;
    title = str "title" j;
    note = str "note" j;
    host = { recommended_domains; ocaml };
    rows;
    gates = List.map gate (arr "gates" j);
  }

let of_string s =
  match Json.parse_result s with
  | Error e -> Error e
  | Ok j -> ( try Ok (of_json j) with Bad e -> Error e)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> Result.map_error (fun e -> path ^ ": " ^ e) (of_string s)

let write ~dir r =
  let path = Filename.concat dir (file_name r.suite) in
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string r));
  path

let value r name =
  List.find_map (fun x -> if x.name = name then Some x.value else None) r.rows

let check r g =
  let op, b, ok =
    match g.bound with
    | Max b -> ("max", b, fun v -> v <= b)
    | Min b -> ("min", b, fun v -> v >= b)
  in
  match value r g.metric with
  | None -> Some (Printf.sprintf "%s: %s is missing (%s %g)" r.suite g.metric op b)
  | Some v when not (Float.is_finite v) ->
      Some (Printf.sprintf "%s: %s = %g is not finite (%s %g)" r.suite g.metric v op b)
  | Some v when ok v -> None
  | Some v -> Some (Printf.sprintf "%s: %s = %g is past its %s %g" r.suite g.metric v op b)

(* ------------------------------------------------------------------ *)
(* fatnet bench report *)

let suites_in dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      Array.to_list files
      |> List.filter_map (fun f ->
             let n = String.length f in
             if n > 11 && String.starts_with ~prefix:"BENCH_" f
                && String.ends_with ~suffix:".json" f
             then Some (String.sub f 6 (n - 11))
             else None)

let fmt_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

let report ~baseline ~dir ~guard_tol =
  let errors = ref [] and failures = ref [] and checked = ref 0 in
  let load d suite =
    let path = Filename.concat d (file_name suite) in
    if not (Sys.file_exists path) then None
    else
      match read path with
      | Ok r when r.suite = suite -> Some r
      | Ok r ->
          errors := Printf.sprintf "%s: holds suite %S" path r.suite :: !errors;
          None
      | Error e ->
          errors := e :: !errors;
          None
  in
  let table =
    Table.create ~columns:[ "bench"; "metric"; "baseline"; "new"; "delta"; "status" ]
  in
  let suites =
    List.sort_uniq compare
      (suites_in baseline @ Option.fold ~none:[] ~some:suites_in dir)
  in
  List.iter
    (fun suite ->
      let base = load baseline suite in
      let fresh = Option.bind dir (fun d -> load d suite) in
      match if Option.is_some fresh then fresh else base with
      | None -> ()
      | Some checked_record ->
          incr checked;
          let records = List.filter_map Fun.id [ base; fresh ] in
          let gates = List.sort_uniq compare (List.concat_map (fun r -> r.gates) records) in
          let names =
            List.concat_map
              (fun r ->
                List.filter_map
                  (fun x -> if x.better <> Info then Some x.name else None)
                  r.rows)
              records
            @ List.map (fun g -> g.metric) gates
          in
          let shown =
            List.rev
              (List.fold_left
                 (fun acc n -> if List.mem n acc then acc else n :: acc)
                 [] names)
          in
          List.iter
            (fun name ->
              let b = Option.bind base (fun r -> value r name) in
              let f = Option.bind fresh (fun r -> value r name) in
              let delta =
                match (b, f) with
                | Some b, Some f when b <> 0. && Float.is_finite b && Float.is_finite f ->
                    Some ((f -. b) /. Float.abs b)
                | _ -> None
              in
              let gate_failures =
                List.filter_map
                  (fun g -> if g.metric = name then check checked_record g else None)
                  gates
              in
              let better =
                List.find_map
                  (fun x -> if x.name = name then Some x.better else None)
                  checked_record.rows
              in
              let guard_failure =
                match (guard_tol, delta, better) with
                | Some g, Some d, Some Higher when d < -.g ->
                    Some
                      (Printf.sprintf "%s: %s dropped %.1f%% (guard %.1f%%)" suite name
                         (-100. *. d) (100. *. g))
                | Some g, Some d, Some Lower when d > g ->
                    Some
                      (Printf.sprintf "%s: %s rose %.1f%% (guard %.1f%%)" suite name
                         (100. *. d) (100. *. g))
                | _ -> None
              in
              let fails = gate_failures @ Option.to_list guard_failure in
              failures := List.rev_append fails !failures;
              let cell = Option.fold ~none:"--" ~some:fmt_num in
              Table.add_row table
                [
                  suite;
                  name;
                  cell b;
                  cell f;
                  Option.fold ~none:"--"
                    ~some:(fun d -> Printf.sprintf "%+.1f%%" (100. *. d))
                    delta;
                  (if fails = [] then "ok" else "FAIL");
                ])
            shown)
    suites;
  List.iter (Printf.eprintf "error: %s\n%!") (List.rev !errors);
  if !checked = 0 then begin
    Printf.eprintf "error: no BENCH_*.json found in %s%s\n%!" baseline
      (match dir with Some d -> " or " ^ d | None -> "");
    1
  end
  else begin
    Table.print table;
    match (List.rev !failures, !errors) with
    | [], [] ->
        print_endline "all bench gates pass";
        0
    | fs, _ ->
        List.iter (Printf.printf "FAIL: %s\n") fs;
        1
  end

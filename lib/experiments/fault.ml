module Splitmix64 = Fatnet_prng.Splitmix64

type site = Cache_find | Cache_store | Point_exec | Tmp_rename

let site_name = function
  | Cache_find -> "cache_find"
  | Cache_store -> "cache_store"
  | Point_exec -> "point_exec"
  | Tmp_rename -> "tmp_rename"

let all_sites = [ Cache_find; Cache_store; Point_exec; Tmp_rename ]

type t = Off | Plan of { seed : int64; rates : (site * float) list }

let none = Off

let is_none t = t = Off

let clamp01 p = if p < 0. then 0. else if p > 1. then 1. else p

let make ?(seed = 0L) rates =
  let rates =
    List.filter_map
      (fun (s, p) ->
        let p = clamp01 p in
        if p > 0. then Some (s, p) else None)
      rates
  in
  if rates = [] then Off else Plan { seed; rates }

exception Injected of site * string

let () =
  Printexc.register_printer (function
    | Injected (site, key) ->
        let key = if String.length key > 24 then String.sub key 0 24 ^ "…" else key in
        Some (Printf.sprintf "injected fault at %s (key %s)" (site_name site) key)
    | _ -> None)

(* The decision stream: a SplitMix64 seeded by mixing the plan seed
   with the key's digest and a (site, attempt) tag.  One generator
   output is a full avalanche of the seed, so distinct inputs give
   decorrelated decisions; nothing here depends on call order, which
   is what keeps schedules reproducible whichever domain claims a
   point. *)
let key_bits key = Bytes.get_int64_le (Bytes.of_string (Digest.string key)) 0

let site_index = function
  | Cache_find -> 1
  | Cache_store -> 2
  | Point_exec -> 3
  | Tmp_rename -> 4

let fires t site ~key ~attempt =
  match t with
  | Off -> false
  | Plan { seed; rates } -> (
      match List.assoc_opt site rates with
      | None -> false
      | Some p ->
          let tag = (site_index site * 0x1000003) + (attempt * 0x9e3779) in
          let s = Int64.logxor (Int64.logxor seed (key_bits key)) (Int64.of_int tag) in
          Splitmix64.next_float (Splitmix64.create s) < p)

let trip t site ~key ?(attempt = 0) () =
  if fires t site ~key ~attempt then raise (Injected (site, key))

(* ---- spec strings ---- *)

let site_of_name n = List.find_opt (fun s -> site_name s = n) all_sites

let of_spec spec =
  let ( let* ) = Result.bind in
  let fields =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  let parse_field (seed, rates) field =
    match String.index_opt field '=' with
    | None -> Error (Printf.sprintf "%S: expected name=value" field)
    | Some i -> (
        let name = String.trim (String.sub field 0 i) in
        let value = String.trim (String.sub field (i + 1) (String.length field - i - 1)) in
        match name with
        | "seed" -> (
            match Int64.of_string_opt value with
            | Some s -> Ok (s, rates)
            | None -> Error (Printf.sprintf "seed %S: expected an integer" value))
        | _ -> (
            match site_of_name name with
            | None ->
                Error
                  (Printf.sprintf "unknown site %S (use %s or seed)" name
                     (String.concat ", " (List.map site_name all_sites)))
            | Some site -> (
                match float_of_string_opt value with
                | Some p when p >= 0. && p <= 1. -> Ok (seed, (site, p) :: rates)
                | Some _ | None ->
                    Error (Printf.sprintf "%s=%s: expected a probability in [0, 1]" name value))))
  in
  let* seed, rates =
    List.fold_left
      (fun acc field ->
        let* acc = acc in
        parse_field acc field)
      (Ok (0L, []))
      fields
  in
  Ok (make ~seed (List.rev rates))

let to_spec = function
  | Off -> ""
  | Plan { seed; rates } ->
      String.concat ","
        (Printf.sprintf "seed=%Ld" seed
        :: List.map (fun (s, p) -> Printf.sprintf "%s=%g" (site_name s) p) rates)

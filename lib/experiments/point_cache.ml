module Scenario = Fatnet_scenario.Scenario
module Summary = Fatnet_stats.Summary
module Runner = Fatnet_sim.Runner

(* Bump whenever the simulator, the replication rule, or the stored
   format changes meaning: the version is part of every key, so a
   bump invalidates the whole cache without touching the files.
   Scenario-semantics changes bump [Scenario.scenario_version], which
   prefixes the canonical rendering and invalidates just the same. *)
(* Version 3: the stored summary carries the full quantile ladder
   (p50/p90/p99/p999).  Version-2 entries fail the magic-line check
   and read as plain misses — recomputed and rewritten, never an
   error. *)
let engine_version = 3

let default_dir = Filename.concat "results" ".cache"

let fbits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* The key is the scenario's own canonical identity — one rendering
   shared with [Scenario.hash], every float as its IEEE-754 bit hex,
   name/title excluded — prefixed with both versions.  Two
   configurations differing in the last ulp get different keys; a
   relabeled scenario keeps its entries. *)
let key (s : Scenario.t) =
  Printf.sprintf "fatnet-point v%d;scn v%d;%s" engine_version Scenario.scenario_version
    (Scenario.canonical s)

let path_of ~dir k = Filename.concat dir (Digest.to_hex (Digest.string k) ^ ".point")

let to_lines ~key:k (e : Runner.point) =
  let s = e.summary in
  [
    Printf.sprintf "fatnet-point-cache %d" engine_version;
    k;
    Printf.sprintf "count %d" s.Summary.count;
    Printf.sprintf "mean %s" (fbits s.Summary.mean);
    Printf.sprintf "stddev %s" (fbits s.Summary.stddev);
    Printf.sprintf "min %s" (fbits s.Summary.min);
    Printf.sprintf "max %s" (fbits s.Summary.max);
    Printf.sprintf "p50 %s" (fbits s.Summary.p50);
    Printf.sprintf "p90 %s" (fbits s.Summary.p90);
    Printf.sprintf "p99 %s" (fbits s.Summary.p99);
    Printf.sprintf "p999 %s" (fbits s.Summary.p999);
    Printf.sprintf "ci %s" (fbits e.ci_half_width);
    Printf.sprintf "reps %d" e.replications;
    Printf.sprintf "events %d" e.events;
  ]

let float_field lines name =
  List.find_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = name ->
          let v = String.sub l (i + 1) (String.length l - i - 1) in
          Scanf.sscanf_opt v "%Lx" Int64.float_of_bits
      | _ -> None)
    lines

let int_field lines name =
  List.find_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = name ->
          int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
      | _ -> None)
    lines

let of_lines ~key:k = function
  | magic :: stored_key :: fields
    when magic = Printf.sprintf "fatnet-point-cache %d" engine_version && stored_key = k
    -> (
      match
        ( ( int_field fields "count",
            float_field fields "mean",
            float_field fields "stddev",
            float_field fields "min",
            float_field fields "max" ),
          ( float_field fields "p50",
            float_field fields "p90",
            float_field fields "p99",
            float_field fields "p999" ),
          (float_field fields "ci", int_field fields "reps", int_field fields "events") )
      with
      | ( (Some count, Some mean, Some stddev, Some min, Some max),
          (Some p50, Some p90, Some p99, Some p999),
          (Some ci, Some reps, Some events) ) ->
          Some
            {
              Runner.summary = { Summary.count; mean; stddev; min; max; p50; p90; p99; p999 };
              ci_half_width = ci;
              replications = reps;
              events;
            }
      | _ -> None)
  | _ -> None

let find ~dir ?(faults = Fault.none) k =
  Fault.trip faults Fault.Cache_find ~key:k ();
  let path = path_of ~dir k in
  match In_channel.with_open_text path In_channel.input_lines with
  | lines -> of_lines ~key:k lines
  | exception Sys_error _ -> None

let store ~dir ?(faults = Fault.none) k entry =
  Fault.trip faults Fault.Cache_store ~key:k ();
  Fs_util.mkdir_p dir;
  let path = path_of ~dir k in
  (* Write-then-rename so concurrent domains storing the same key (or
     a reader racing a writer) never observe a torn file.  Any failure
     past this point removes the temp file before propagating: a
     failed store must never leave [.tmp] garbage behind. *)
  let tmp = Filename.temp_file ~temp_dir:dir "point" ".tmp" in
  match
    Out_channel.with_open_text tmp (fun oc ->
        List.iter
          (fun l ->
            Out_channel.output_string oc l;
            Out_channel.output_char oc '\n')
          (to_lines ~key:k entry));
    Fault.trip faults Fault.Tmp_rename ~key:k ();
    Sys.rename tmp path
  with
  | () -> ()
  | exception exn ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise exn

(* A [.tmp] this old cannot belong to a live writer (stores are
   write-then-rename within one point's execution); it is debris from
   a crashed or killed run. *)
let tmp_ttl_seconds = 900.

let tmp_is_stale path =
  match Unix.stat path with
  | { Unix.st_mtime; _ } -> Unix.gettimeofday () -. st_mtime > tmp_ttl_seconds
  | exception Unix.Unix_error _ -> false

let gc_tmp ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | files ->
      Array.fold_left
        (fun removed f ->
          let path = Filename.concat dir f in
          if Filename.check_suffix f ".tmp" && tmp_is_stale path then
            match Sys.remove path with
            | () -> removed + 1
            | exception Sys_error _ -> removed
          else removed)
        0 files

let clear ~dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f ->
        (* Entries always; [.tmp] only when stale — a fresh [.tmp]
           belongs to a concurrent writer, and deleting it would race
           that writer's rename into a [Sys_error]. *)
        let path = Filename.concat dir f in
        if
          Filename.check_suffix f ".point"
          || (Filename.check_suffix f ".tmp" && tmp_is_stale path)
        then try Sys.remove path with Sys_error _ -> ())
      (Sys.readdir dir)

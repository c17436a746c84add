type network = { bandwidth : float; network_latency : float; switch_latency : float }

type message = { length_flits : int; flit_bytes : float }

type cluster = { tree_depth : int; icn1 : network; ecn1 : network }

type system = { m : int; clusters : cluster array; icn2 : network; icn2_depth : int }

let beta net = 1. /. net.bandwidth

let int_pow base exp =
  let rec go acc base exp =
    if exp = 0 then acc
    else if exp land 1 = 1 then go (acc * base) (base * base) (exp asr 1)
    else go acc (base * base) (exp asr 1)
  in
  go 1 base exp

let cluster_size ~m ~tree_depth = 2 * int_pow (m / 2) tree_depth

let cluster_nodes sys i = cluster_size ~m:sys.m ~tree_depth:sys.clusters.(i).tree_depth

let total_nodes sys =
  Array.fold_left (fun acc c -> acc + cluster_size ~m:sys.m ~tree_depth:c.tree_depth) 0
    sys.clusters

let cluster_count sys = Array.length sys.clusters

let outgoing_probability ~system ~cluster =
  let total = total_nodes system in
  let nodes = cluster_nodes system cluster in
  if total <= 1 then 0.
  else 1. -. (float_of_int (nodes - 1) /. float_of_int (total - 1))

let icn2_depth_for ~m ~clusters =
  let half = m / 2 in
  if half < 1 then None
  else begin
    (* valid depths start at 1: C = 2*(m/2)^n_c with n_c >= 1 *)
    let rec search n acc =
      if 2 * acc > clusters then None
      else if 2 * acc = clusters then Some n
      else if half = 1 then None
      else search (n + 1) (acc * half)
    in
    search 1 half
  end

let check_network name net =
  if net.bandwidth <= 0. then Error (name ^ ": bandwidth must be positive")
  else if net.network_latency < 0. then Error (name ^ ": negative network latency")
  else if net.switch_latency < 0. then Error (name ^ ": negative switch latency")
  else Ok ()

let validate sys =
  let ( let* ) = Result.bind in
  let* () =
    if sys.m < 2 || sys.m mod 2 <> 0 then Error "m must be even and >= 2" else Ok ()
  in
  let* () =
    if Array.length sys.clusters = 0 then Error "system needs at least one cluster" else Ok ()
  in
  let* () = check_network "icn2" sys.icn2 in
  let* () =
    Array.to_list sys.clusters
    |> List.mapi (fun i c -> (i, c))
    |> List.fold_left
         (fun acc (i, c) ->
           let* () = acc in
           let name = Printf.sprintf "cluster %d" i in
           let* () =
             if c.tree_depth < 1 then Error (name ^ ": tree depth must be >= 1") else Ok ()
           in
           let* () = check_network (name ^ " icn1") c.icn1 in
           check_network (name ^ " ecn1") c.ecn1)
         (Ok ())
  in
  let c = Array.length sys.clusters in
  if c = 1 then
    (* A single cluster never uses ICN2; any depth is accepted. *)
    if sys.icn2_depth >= 1 then Ok () else Error "icn2_depth must be >= 1"
  else if sys.icn2_depth < 1 then Error "icn2_depth must be >= 1"
  else if cluster_size ~m:sys.m ~tree_depth:sys.icn2_depth <> c then
    Error
      (Printf.sprintf "icn2_depth %d does not satisfy C = 2*(m/2)^n_c for C = %d, m = %d"
         sys.icn2_depth c sys.m)
  else Ok ()

let validate_exn sys =
  match validate sys with Ok () -> () | Error msg -> invalid_arg ("Params.validate: " ^ msg)

let make_system ~m ~icn2 ?icn2_depth clusters =
  if clusters = [] then invalid_arg "Params.make_system: no clusters";
  let c = List.length clusters in
  let icn2_depth =
    match icn2_depth with
    | Some d -> d
    | None -> (
        if c = 1 then 1
        else
          match icn2_depth_for ~m ~clusters:c with
          | Some d -> d
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Params.make_system: no n_c satisfies C = 2*(m/2)^n_c for C = %d, m = %d" c
                   m))
  in
  let sys = { m; clusters = Array.of_list clusters; icn2; icn2_depth } in
  validate_exn sys;
  sys

let homogeneous ~m ~tree_depth ~clusters ~icn1 ~ecn1 ~icn2 =
  make_system ~m ~icn2 (List.init clusters (fun _ -> { tree_depth; icn1; ecn1 }))

let pp_network ppf net =
  Format.fprintf ppf "{bw=%g; α_n=%g; α_s=%g}" net.bandwidth net.network_latency
    net.switch_latency

let pp_system ppf sys =
  Format.fprintf ppf "m=%d C=%d N=%d n_c=%d icn2=%a" sys.m (cluster_count sys)
    (total_nodes sys) sys.icn2_depth pp_network sys.icn2;
  Array.iteri
    (fun i c ->
      Format.fprintf ppf "@ cluster %d: n=%d N=%d icn1=%a ecn1=%a" i c.tree_depth
        (cluster_size ~m:sys.m ~tree_depth:c.tree_depth)
        pp_network c.icn1 pp_network c.ecn1)
    sys.clusters

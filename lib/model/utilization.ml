type resource =
  | Intra_channel of int
  | Intra_source of int
  | Egress_channel of int * int
  | Egress_source of int
  | Icn2_channel of int * int
  | Cd_queue of int * int

type entry = { resource : resource; rho : float; saturates_at : float }

let entry resource rho ~lambda_g =
  {
    resource;
    rho;
    saturates_at = (if rho > 0. then lambda_g /. rho else infinity);
  }

let analyze ?(variants = Variants.default) ~system ~message ~lambda_g () =
  Params.validate_exn system;
  if not (lambda_g > 0.) then invalid_arg "Utilization.analyze: lambda_g must be positive";
  let c_count = Params.cluster_count system in
  let u k = Params.outgoing_probability ~system ~cluster:k in
  let m = float_of_int message.Params.length_flits in
  let dist_c = Fatnet_topology.Distance.create ~m:system.Params.m ~n:system.Params.icn2_depth in
  let t_cs_i2 = Service_time.t_cs system.Params.icn2 ~message in
  let entries = ref [] in
  let push e = entries := e :: !entries in
  for i = 0 to c_count - 1 do
    let c = system.Params.clusters.(i) in
    let nodes = float_of_int (Params.cluster_nodes system i) in
    let u_i = u i in
    let dist_i = Fatnet_topology.Distance.create ~m:system.Params.m ~n:c.Params.tree_depth in
    (* ICN1: channel occupancy is the message transfer time at local
       speed (Eq. 14's internal stage service). *)
    let t_cs_i = Service_time.t_cs c.Params.icn1 ~message in
    let lambda_icn1 = nodes *. lambda_g *. (1. -. u_i) in
    let eta_icn1 = Fatnet_topology.Distance.channel_rate dist_i ~lambda:lambda_icn1 in
    push (entry (Intra_channel i) (eta_icn1 *. m *. t_cs_i) ~lambda_g);
    (* Source queues: per-node rate times the head-latency floor. *)
    let t_cn_i = Service_time.t_cn c.Params.icn1 ~message in
    push (entry (Intra_source i) (lambda_g *. (1. -. u_i) *. m *. t_cn_i) ~lambda_g);
    let t_cn_e = Service_time.t_cn c.Params.ecn1 ~message in
    push (entry (Egress_source i) (lambda_g *. u_i *. m *. t_cn_e) ~lambda_g);
    (* Pairwise inter-cluster resources (Eqs. 22-25, 37). *)
    for j = 0 to c_count - 1 do
      if j <> i then begin
        let nodes_j = float_of_int (Params.cluster_nodes system j) in
        let u_j = u j in
        let lambda_ecn1 = lambda_g *. ((nodes *. u_i) +. (nodes_j *. u_j)) in
        let t_cs_e = Service_time.t_cs c.Params.ecn1 ~message in
        let eta_ecn1 = Fatnet_topology.Distance.channel_rate dist_i ~lambda:lambda_ecn1 in
        push (entry (Egress_channel (i, j)) (eta_ecn1 *. m *. t_cs_e) ~lambda_g);
        let lambda_icn2 =
          match variants.Variants.lambda_i2 with
          | Variants.Pair_average -> lambda_g *. ((nodes *. u_i) +. (nodes_j *. u_j)) /. 2.
          | Variants.Size_scaled ->
              lambda_g
              *. ((nodes *. u_i) +. (nodes_j *. u_j))
              *. (nodes +. nodes_j) /. (2. *. nodes *. nodes_j)
        in
        let eta_icn2 =
          lambda_icn2
          *. Fatnet_topology.Distance.mean_links dist_c
          /. (4. *. float_of_int system.Params.icn2_depth)
        in
        push (entry (Icn2_channel (i, j)) (eta_icn2 *. m *. t_cs_i2) ~lambda_g);
        push (entry (Cd_queue (i, j)) (lambda_icn2 *. m *. t_cs_i2) ~lambda_g)
      end
    done
  done;
  List.sort (fun a b -> Float.compare b.rho a.rho) !entries

let bottleneck ?variants ~system ~message () =
  match analyze ?variants ~system ~message ~lambda_g:1e-9 () with
  | top :: _ -> top
  | [] -> invalid_arg "Utilization.bottleneck: empty system"

let pp_resource ppf = function
  | Intra_channel i -> Format.fprintf ppf "ICN1(%d) channels" i
  | Intra_source i -> Format.fprintf ppf "source queue into ICN1(%d)" i
  | Egress_channel (i, j) -> Format.fprintf ppf "ECN1(%d) channels [pair (%d,%d)]" i i j
  | Egress_source i -> Format.fprintf ppf "source queue into ECN1(%d)" i
  | Icn2_channel (i, j) -> Format.fprintf ppf "ICN2 channels [pair (%d,%d)]" i j
  | Cd_queue (i, j) -> Format.fprintf ppf "concentrator/dispatcher [pair (%d,%d)]" i j

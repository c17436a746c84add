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

(* Each ρ is a rate from the kernel's terms at [lambda_g] times the
   zero-load service floor M·t of the queue or channel it feeds. *)
let analyze ?variants ~system ~message ~lambda_g () =
  let ws = Eval.workspace ?variants ~system ~message () in
  if not (lambda_g > 0.) then invalid_arg "Utilization.analyze: lambda_g must be positive";
  ignore (Eval.mean_into ws ~lambda_g);
  let t = Eval.terms ws in
  let m = float_of_int message.Params.length_flits in
  let t_cs_i2 = Service_time.t_cs system.Params.icn2 ~message in
  let entries = ref [] in
  let push resource rho = entries := entry resource rho ~lambda_g :: !entries in
  Array.iteri
    (fun i pairs ->
      let c = system.Params.clusters.(i) in
      let a = t.Eval.cluster_class.(i) in
      let u_i = t.Eval.u.(a) in
      let t_cs_i = Service_time.t_cs c.Params.icn1 ~message in
      let t_cn_i = Service_time.t_cn c.Params.icn1 ~message in
      let t_cs_e = Service_time.t_cs c.Params.ecn1 ~message in
      let t_cn_e = Service_time.t_cn c.Params.ecn1 ~message in
      (* ICN1: channel occupancy is the message transfer time at local
         speed (Eq. 14's internal stage service). *)
      push (Intra_channel i) (t.Eval.eta_icn1.(a) *. m *. t_cs_i);
      (* Source queues: per-node rate times the head-latency floor. *)
      push (Intra_source i) (lambda_g *. (1. -. u_i) *. m *. t_cn_i);
      push (Egress_source i) (lambda_g *. u_i *. m *. t_cn_e);
      (* Pairwise inter-cluster resources (Eqs. 22-25, 37), pair class
         by destination rank. *)
      Array.iteri
        (fun k p ->
          let j = if k < i then k else k + 1 in
          push (Egress_channel (i, j)) (t.Eval.eta_ecn1.(p) *. m *. t_cs_e);
          push (Icn2_channel (i, j)) (t.Eval.eta_icn2.(p) *. m *. t_cs_i2);
          push (Cd_queue (i, j)) (t.Eval.lambda_icn2.(p) *. m *. t_cs_i2))
        pairs)
    t.Eval.pair_class;
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

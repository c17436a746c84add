(** Ablation studies for the design choices DESIGN.md calls out: how
    much each contested equation reading moves the model, judged
    against the same simulation. *)

type run =
  | Model of (unit -> Fatnet_report.Table.t)
      (** Model-only: the table has a fixed shape and simulates
          nothing. *)
  | Simulated of
      (steps:int -> protocol:Fatnet_scenario.Scenario.protocol -> Fatnet_report.Table.t)
      (** [steps] latency points per setting, each simulated under
          [protocol]. *)

type t = { id : string; description : string; run : run }

val lambda_i2 : t
(** Eq. (23) primary vs. size-scaled reading: saturation rate and
    mid-load latency under both, for both Table-1 organizations. *)

val relaxing_factor : t
(** Eq. (28) δ applied vs. ignored. *)

val source_variance : t
(** Eq. (17) Draper–Ghosh variance vs. M/D/1 source queues. *)

val source_rate : t
(** Eqs. (18)/(31) per-node vs. literal network-total arrival rates
    in the source queues. *)

val cd_mode : t
(** Simulator C/D hand-off: cut-through vs. store-and-forward, versus
    the model. *)

val all : t list

val find : string -> t option

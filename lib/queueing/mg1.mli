(** M/G/1 queueing formulas (Kleinrock vol. 2), used for the source
    queues and the concentrator/dispatcher buffers of the model.

    The paper's Eq. (15) is the Pollaczek–Khinchine mean waiting time

    [W = λ (x̄² + σ²) / (2 (1 − ρ))],   [ρ = λ x̄].

    Saturated queues ([ρ >= 1]) report an infinite wait rather than a
    negative one, so sweeps past the saturation point stay
    well-behaved. *)

type service = { mean : float; variance : float }
(** First two moments of the service-time distribution.
    [mean >= 0.] and [variance >= 0.]. *)

val utilization : lambda:float -> service:service -> float
(** [ρ = λ x̄]. *)

val is_stable : lambda:float -> service:service -> bool
(** [ρ < 1]. *)

val waiting_time : lambda:float -> service:service -> float
(** Pollaczek–Khinchine mean wait in queue (excluding service);
    [infinity] when [ρ >= 1].  Requires [lambda >= 0.]. *)

val waiting_time_mv : lambda:float -> mean:float -> variance:float -> float
(** {!waiting_time} with the moments passed unboxed — the same
    formula, guards and results bit-for-bit, without allocating a
    [service] record.  The model kernel ([Fatnet_model.Eval]) keeps
    a same-module copy of it, pinned by the model's property tests. *)

val sojourn_time : lambda:float -> service:service -> float
(** Wait plus service. *)

val deterministic : float -> service
(** Service with zero variance (M/D/1). *)

val exponential : mean:float -> service
(** Service with variance [mean²] (M/M/1). *)

val queue_length : lambda:float -> service:service -> float
(** Mean number waiting in queue, [L_q = λ·W] (Little's law);
    [infinity] when saturated. *)

val system_length : lambda:float -> service:service -> float
(** Mean number in system, [L = λ·(W + x̄)]. *)

val busy_period : lambda:float -> service:service -> float
(** Mean busy-period length [x̄ / (1 − ρ)]; [infinity] when
    saturated. *)

val coefficient_of_variation : service -> float
(** [c = σ / x̄]; 0 for deterministic, 1 for exponential service.
    Requires [mean > 0.]. *)

val mm1_waiting_time : lambda:float -> mu:float -> float
(** Closed-form M/M/1 wait [ρ / (μ − λ)]; reference for tests. *)

val md1_waiting_time : lambda:float -> mean:float -> float
(** Closed-form M/D/1 wait [ρ x̄ / (2 (1 − ρ))]; reference for
    tests. *)

(** Execution limits for fault-simulation campaigns: wall-clock deadline,
    gate-evaluation budget, cooperative interrupt.

    Engines poll a shared {!gauge} at pattern-unit boundaries; when a
    limit trips they stop cleanly and return [Outcome.Partial] with the
    detections gathered so far.  The gauge is domain-safe ([Atomic.t]
    counter and cause).  Precedence when several limits trip at once:
    interrupt > deadline > evaluation budget. *)

type t

val none : t

val make :
  ?deadline:float -> ?max_evals:int -> ?interrupt:(unit -> bool) -> unit -> t
(** [deadline] is absolute epoch seconds ([Unix.gettimeofday]-based);
    [max_evals] is a budget in {e gate evaluations} (the innermost work
    unit, the same metric as the ["gate_evals"] field of the
    ["faultsim.run"] event) and must
    be positive; [interrupt] is polled and should be cheap (read an
    [Atomic.t] flag). *)

val is_none : t -> bool

type gauge
(** Shared mutable limit state for one run. *)

val gauge : t -> gauge

val add_evals : gauge -> int -> unit
(** Account [n] gate evaluations.  No-op when no budget is set. *)

val evals : gauge -> int

val check : gauge -> bool
(** [true] when the run should stop.  The first limit observed tripping
    is recorded as the {!stopped} cause; a campaign may overshoot by at
    most one pattern unit between polls. *)

val stopped : gauge -> Outcome.stop_cause option

val trip : gauge -> Outcome.stop_cause -> unit
(** Force a stop cause (first writer wins) — used by tests and by
    engines that detect a condition outside {!check}. *)

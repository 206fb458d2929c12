(** Lumped-delay timing and maximum-speed sampling for precharged
    networks.

    Each gate has a nominal delay; a performance-degradation fault
    multiplies one gate's delay.  During domino evaluation only rises
    occur, so an output sampled at the clock period reads 0 unless its
    rise completed — the executable form of the paper's CMOS-3(b) /
    Fig. 2 maximum-speed-testing argument. *)

type delays = float array
(** Delay per gate id. *)

val nominal_delays : Compiled.t -> delays
(** One unit of delay per gate. *)

val with_slow_gate : delays -> gate_id:int -> factor:float -> delays

val arrival : Compiled.t -> delays -> bool array -> bool array * float array
(** Per-net (value, rise-arrival-time) for one vector; value-0 nets keep
    time 0. *)

val critical_path : Compiled.t -> delays -> bool array -> float
(** Latest primary-output arrival for one vector. *)

val min_period : Compiled.t -> delays -> bool array list -> float
(** Minimum safe clock period over a pattern set. *)

val at_speed_sample : Compiled.t -> delays -> period:float -> bool array -> bool array
(** Primary outputs as seen when sampling at [period] (late rises read as
    the precharged 0). *)

val at_speed_detects :
  Compiled.t -> delays -> gate_id:int -> factor:float -> period:float -> bool array -> bool
(** Does this pattern expose the slow gate at the given period? *)

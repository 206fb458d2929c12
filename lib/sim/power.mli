open Dynmos_util

(** Quiescent-current (IDDQ) estimation — the measurement technique the
    paper's Section 4(b) argues against, made quantitative: per-transistor
    baseline leakage with process variation, plus a defect current when a
    stuck-closed device's Vdd-GND path is active under the applied
    vector.  Each transistor leaks 0.02 with std dev 0.005; an active
    faulty path adds 0.5. *)

val gaussian : Prng.t -> mu:float -> sigma:float -> float

val baseline_current : Prng.t -> Compiled.t -> float
(** One sampled fault-free leakage measurement of the whole circuit. *)

val bridge_active : Compiled.t -> gate_id:int -> bool array -> bool
(** Is the stuck-closed precharge device's Vdd-GND path conducting under
    this vector (the gate's evaluation path is on)? *)

val measured_current : Prng.t -> Compiled.t -> faulty_gate:int option -> bool array -> float

val baseline_stats : Compiled.t -> float * float
(** (mean, std dev) of the fault-free total leakage. *)

val iddq_detects : Prng.t -> Compiled.t -> faulty_gate:int option -> bool array -> bool
(** Threshold test at mean + 3·sigma. *)

val detection_rate : Prng.t -> Compiled.t -> faulty_gate:int option -> bool array -> float
(** Monte-Carlo detection (or false-positive, with [faulty_gate:None])
    rate of the threshold test over 200 trials. *)

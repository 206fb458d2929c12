open Dynmos_util
open Dynmos_netlist
open Dynmos_cell

(* Quiescent-current (IDDQ / leakage) estimation.

   Section 4(b) of the paper argues against leakage measurement: "it is
   hard to prove whether one faulty conducting path within a large scaled
   integrated circuit leads to a significant and computable rise of the
   power dissipation".  We make that argument quantitative with a simple
   statistical model: every transistor contributes a small random baseline
   leakage (process variation), and a stuck-closed restoring device adds a
   defect current when its ratioed fight is active under the applied
   vector.  Detection compares the measured current against the expected
   baseline distribution. *)

(* Per-transistor baseline leakage and its variation (std dev), and the
   current of one active faulty Vdd-GND path: calibrated so that the
   single-defect current stands out of the baseline spread on cell-sized
   blocks but drowns in it past a few thousand transistors — the Section
   4(b) observation, made quantitative. *)
let leak_mean = 2e-2
let leak_sigma = 5e-3
let defect_current = 0.5

(* The detection threshold, in baseline std devs above the mean, and the
   Monte-Carlo trials of [detection_rate]. *)
let k_sigma = 3.0
let trials = 200

(* Gaussian via Box-Muller on the deterministic PRNG. *)
let gaussian prng ~mu ~sigma =
  let u1 = Float.max 1e-12 (Prng.float prng) in
  let u2 = Prng.float prng in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let baseline_current prng compiled =
  let n = Netlist.n_transistors (Compiled.netlist compiled) in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Float.max 0.0 (gaussian prng ~mu:leak_mean ~sigma:leak_sigma)
  done;
  !total

(* Is the faulty Vdd-GND path of a stuck-closed precharge device (domino
   CMOS-3-style bridge) conducting under this vector?  It conducts when
   the gate's switching network is on during evaluation. *)
let bridge_active compiled ~gate_id pi =
  let values = Compiled.eval_nets compiled pi in
  let cg = (Compiled.gates compiled).(gate_id) in
  (* The internal node is pulled down (path on) iff the gate's function,
     i.e. the transmission function for domino, is 1. *)
  let tech = Cell.technology cg.Compiled.g.Netlist.cell in
  match tech with
  | Technology.Domino_cmos -> values.(cg.Compiled.out)
  | Technology.Dynamic_nmos -> not values.(cg.Compiled.out)
  | Technology.Static_cmos | Technology.Nmos_pulldown | Technology.Bipolar ->
      invalid_arg "Power.bridge_active: precharged technologies only"

let measured_current prng compiled ~faulty_gate pi =
  let base = baseline_current prng compiled in
  match faulty_gate with
  | Some gate_id when bridge_active compiled ~gate_id pi -> base +. defect_current
  | Some _ | None -> base

(* Expected baseline statistics for thresholding: mean and std dev of the
   total leakage of a circuit with n transistors. *)
let baseline_stats compiled =
  let n = float_of_int (Netlist.n_transistors (Compiled.netlist compiled)) in
  (* Truncation at zero slightly biases the per-device mean upward; for
     the detection-shape experiment the Gaussian approximation is fine. *)
  (n *. leak_mean, sqrt n *. leak_sigma)

let iddq_detects prng compiled ~faulty_gate pi =
  let mu, sigma = baseline_stats compiled in
  let current = measured_current prng compiled ~faulty_gate pi in
  current > mu +. (k_sigma *. sigma)

(* Probability (Monte Carlo) that a vector's IDDQ measurement flags the
   fault, and the corresponding false-positive rate on a fault-free die. *)
let detection_rate prng compiled ~faulty_gate pi =
  let hits = ref 0 in
  for _ = 1 to trials do
    if iddq_detects prng compiled ~faulty_gate pi then incr hits
  done;
  float_of_int !hits /. float_of_int trials

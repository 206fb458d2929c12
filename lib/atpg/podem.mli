open Dynmos_faultsim

(** PODEM-style deterministic test generation (the paper's reference
    [13]), generalized to the function-class faults the dynamic-MOS model
    produces: the good and faulty circuits are co-simulated in
    three-valued logic, with excitation/propagation objectives backtraced
    to primary inputs and bounded backtracking. *)

type result = Test of bool array | Untestable | Aborted

val is_test : result -> bool

val generate : Faultsim.universe -> Faultsim.site -> result
(** Find an input vector detecting one fault site ([Untestable] when the
    search space is exhausted, [Aborted] past 1000 backtracks). *)

type set_result = {
  vectors : bool array array;
  per_site : result array;      (** indexed by site id *)
  covered_by_simulation : int;  (** faults dropped by simulating new tests *)
}

val generate_set : Faultsim.universe -> set_result
(** Complete test set with fault dropping. *)

val schedule_double : bool array array -> bool array array
(** Apply the set exactly twice — the paper's prescription for satisfying
    assumption A2 with a deterministic test. *)

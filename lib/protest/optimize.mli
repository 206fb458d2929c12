open Dynmos_faultsim

(** Optimized input signal probabilities (PROTEST Fig. 8, feature 4):
    per-input probabilities minimizing the required random-test length
    ("reduced by orders of magnitudes"). *)

type objective = Estimated | Exact
(** Which detection-probability model drives the search. *)

val optimize :
  ?objective:objective ->
  confidence:float ->
  Faultsim.universe ->
  float array ->
  float array
(** Cyclic coordinate descent over the grid 0.05, 0.1, 0.2, ..., 0.9,
    0.95, at most 8 passes, starting from the given weights;
    deterministic. *)

type result = {
  initial_weights : float array;
  optimized_weights : float array;
  initial_length : int option;   (** [None]: some fault undetectable at the start *)
  optimized_length : int option;
  reduction : float option;      (** initial / optimized *)
}

val run :
  ?objective:objective ->
  confidence:float ->
  Faultsim.universe ->
  result
(** Optimize from the uniform 0.5 starting point and report the test
    lengths before and after. *)

val cost :
  Faultsim.universe ->
  objective:objective ->
  confidence:float ->
  pi_weights:float array ->
  int * float
(** The lexicographic objective (exposed for tests): get all faults
    detectable first, then minimize length. *)

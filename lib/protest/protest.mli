open Dynmos_core
open Dynmos_netlist
open Dynmos_faultsim

(** The PROTEST tool facade (paper Fig. 8): signal probabilities, fault
    detection probabilities, necessary test length for a demanded
    confidence, optimized input probabilities, random pattern generation
    with the proposed distributions, and validating static fault
    simulation — over fault universes generated from the
    technology-dependent libraries of Section 5. *)

type fault_report = {
  site : Faultsim.site;
  label : string;
  estimated : float;     (** estimated detection probability *)
  exact : float option;  (** exact value when the circuit is small enough *)
}

type report = {
  netlist : Netlist.t;
  universe : Faultsim.universe;
  pi_weights : float array;
  signal_probs : (string * float) array;
  faults : fault_report array;
  test_length : int option;  (** [None]: an undetectable fault is present *)
  confidence : float;
  optimization : Optimize.result option;
}

val analyze :
  ?electrical:Fault_map.electrical ->
  ?confidence:float ->
  ?optimize:bool ->
  ?pi_weights:float array ->
  Netlist.t ->
  report
(** Run the pipeline.  Exact probabilities are used up to 14 primary
    inputs, estimates beyond. *)

val patterns : ?seed:int -> report -> count:int -> bool array array
(** Weighted random patterns with the report's (optimized, if present)
    distributions. *)

type validation = {
  applied : int;
  summary : Faultsim.summary;
  achieved_coverage : float;
  predicted_confidence : float;
}

val validate : ?seed:int -> report -> validation
(** Static fault simulation of the proposed test (feature 6). *)

val pp_report : Format.formatter -> report -> unit

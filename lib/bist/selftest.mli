open Dynmos_sim
open Dynmos_faultsim

(** Random self-test sessions (paper Section 4): a pattern source (LFSR,
    BILBO in PRPG mode, or a weighted generator) drives the inputs at
    operating speed while a MISR compacts the outputs; detection is a
    signature mismatch.  At-speed variants route responses through the
    timing model so delay faults are caught. *)

type source =
  | Lfsr_source of Lfsr.t
  | Bilbo_source of Bilbo.t
  | Weighted_source of Weighted_gen.t

type session

val make_session :
  ?seed:int ->
  ?source:[ `Lfsr | `Bilbo | `Weighted of float array ] ->
  Compiled.t ->
  n_cycles:int ->
  session
(** Sessions are stateful (the source advances); build a fresh one per
    run.  The MISR is 16 bits wide. *)

val run_with : session -> response:(bool array -> bool array) -> int
(** Run the session with a custom response function (fault injection /
    at-speed sampling plug in here); returns the signature. *)

val golden : session -> int
(** Fault-free signature. *)

type outcome = { golden_signature : int; faulty_signature : int; detected : bool }

val test_fault :
  ?seed:int ->
  ?source:[ `Lfsr | `Bilbo | `Weighted of float array ] ->
  Compiled.t ->
  n_cycles:int ->
  Faultsim.site ->
  outcome

val test_delay_fault :
  ?seed:int ->
  ?source:[ `Lfsr | `Bilbo | `Weighted of float array ] ->
  Compiled.t ->
  n_cycles:int ->
  gate_id:int ->
  factor:float ->
  period:float ->
  outcome
(** At-speed session against a performance-degradation fault. *)

val coverage :
  ?seed:int ->
  ?source:[ `Lfsr | `Bilbo | `Weighted of float array ] ->
  Faultsim.universe ->
  n_cycles:int ->
  float
(** Fraction of fault sites whose signature differs after a session. *)

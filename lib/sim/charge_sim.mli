open Dynmos_cell
open Dynmos_core

(** Charge-level simulation of single gates.

    Nodes are driven or floating-with-retained-charge; floating nodes leak
    to low after a cycle (assumption A1).  This module lets the paper's
    claims be executed: dynamic gates stay combinational under every
    physical fault (after the A2 warm-up), static CMOS stuck-open gates do
    not (Fig. 1). *)

type node = Driven of bool | Floating of bool | Unknown

val node_value : node -> Logic.v
val equal_node : node -> node -> bool

val decay : node -> node
(** One cycle of charge decay: driven nodes start floating, floating nodes
    have leaked to low (A1). *)

(** {1 Domino CMOS (Fig. 4)} *)

type domino_state = { y : node;  (** internal precharged node *) z : node  (** inverter output *) }

val domino_initial : domino_state

val domino_cycle :
  ?electrical:Fault_map.electrical ->
  ?fault:Fault.physical ->
  Cell.t ->
  domino_state ->
  bool list ->
  domino_state * Logic.v
(** One precharge/evaluate cycle; returns the new state and the valid
    output sampled at the end of evaluation. *)

val domino_warmup :
  ?electrical:Fault_map.electrical -> ?fault:Fault.physical -> Cell.t -> domino_state
(** Apply every input vector once (satisfies assumption A2). *)

val domino_combinational :
  ?electrical:Fault_map.electrical -> ?fault:Fault.physical -> Cell.t -> bool
(** After warm-up, is the valid output of each cycle independent of the
    gate's internal state (over all reachable states)? *)

(** {1 Dynamic nMOS (Fig. 6)} *)

type nmos_state = { zn : node }

val nmos_initial : nmos_state

val dynamic_nmos_cycle :
  ?electrical:Fault_map.electrical ->
  ?fault:Fault.physical ->
  Cell.t ->
  nmos_state ->
  bool list ->
  nmos_state * Logic.v

val nmos_warmup :
  ?electrical:Fault_map.electrical -> ?fault:Fault.physical -> Cell.t -> nmos_state

val nmos_combinational :
  ?electrical:Fault_map.electrical -> ?fault:Fault.physical -> Cell.t -> bool

(** {1 Static CMOS (Fig. 1, the negative control)} *)

type static_state = { out : node }

val static_initial : static_state

val static_step :
  ?electrical:Fault_map.electrical ->
  ?fault:Fault.physical ->
  Cell.t ->
  static_state ->
  bool list ->
  static_state * Logic.v
(** Apply one input vector; when neither network conducts the output node
    retains its charge — the stuck-open memory. *)

val static_sequential :
  ?electrical:Fault_map.electrical -> ?fault:Fault.physical -> Cell.t -> bool
(** Does some input vector produce different outputs depending on the
    stored state? *)

(** {1 Observation} *)

val observed_function :
  ?electrical:Fault_map.electrical ->
  ?fault:Fault.physical ->
  Cell.t ->
  (bool list * Logic.v) list
(** The logic function a (possibly faulty) dynamic gate exhibits after the
    A2 warm-up, one entry per input vector — compared against
    {!Fault_map.map}'s prediction in tests and benches. *)

val bool_vectors : int -> bool list list
(** All input vectors of the given arity, in row order. *)

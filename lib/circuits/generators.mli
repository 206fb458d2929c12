open Dynmos_cell
open Dynmos_netlist

(** Benchmark circuit generators: reconstructable workloads for the
    paper's techniques (the original evaluation circuits are lost). *)

val tree : op:[ `And | `Or ] -> technology:Technology.t -> fanin:int -> n:int -> Netlist.t
(** Balanced gate tree computing an [n]-ary AND/OR (De Morgan pairs keep
    the global function pure for inverting technologies). *)

val and_tree : ?fanin:int -> technology:Technology.t -> int -> Netlist.t
val or_tree : ?fanin:int -> technology:Technology.t -> int -> Netlist.t

val carry_chain : technology:Technology.t -> int -> Netlist.t
(** Manchester-style carry chain [c_{i+1} = g_i + p_i*c_i]: monotone,
    domino-legal, and the classic long sensitizable path. *)

val parity_boolnet : int -> Boolnet.t
val ripple_adder_boolnet : int -> Boolnet.t
val decoder_boolnet : int -> Boolnet.t
val equality_boolnet : int -> Boolnet.t
val c17_boolnet : unit -> Boolnet.t
val mux_tree_boolnet : int -> Boolnet.t

val random_monotone :
  ?seed:int -> n_inputs:int -> n_gates:int -> technology:Technology.t -> unit -> Netlist.t
(** Seeded random AND/OR network; unconsumed nets become primary outputs. *)

val random_layered :
  ?seed:int ->
  n_inputs:int ->
  width:int ->
  depth:int ->
  ?window:int ->
  technology:Technology.t ->
  unit ->
  Netlist.t
(** Seeded layered random AND/OR network: [depth] layers of [width]
    gates, each reading 2-3 nets from the previous layer within
    +/-[window] (default 8) of its scaled position; unconsumed gate
    nets become primary outputs.  The window bounds fanout-cone growth
    to ~2*[window] gates per layer, keeping compile-time cone tables
    tractable at the thousand-to-ten-thousand-gate scale
    ({!random_monotone}'s uniform connectivity does not). *)

val single_cell : Cell.t -> Netlist.t
(** Wrap one cell as a one-gate network. *)

val fig9_network : unit -> Netlist.t
val fig5_network : unit -> Netlist.t
(** The paper's Fig. 5 two-level domino example [z1 = (i1+i2)*i3]. *)

val wide_and : technology:Technology.t -> int -> Netlist.t
(** Wide AND (fan-in-4 tree): the detection-probability pathology used by
    the PROTEST input-probability-optimization experiment. *)

val parity : style:[ `Static | `Domino ] -> int -> Netlist.t
val ripple_adder : style:[ `Static | `Domino ] -> int -> Netlist.t
val decoder : style:[ `Static | `Domino ] -> int -> Netlist.t
val equality : style:[ `Static | `Domino ] -> int -> Netlist.t
val c17 : style:[ `Static | `Domino ] -> unit -> Netlist.t
val mux_tree : style:[ `Static | `Domino ] -> int -> Netlist.t

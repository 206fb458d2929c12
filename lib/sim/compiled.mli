open Dynmos_expr
open Dynmos_netlist

(** Compiled netlists for fast simulation.

    Nets get dense indices (primary inputs first, then gate outputs in
    topological order); every distinct cell function is compiled once to a
    cube cover evaluated with word arithmetic, so the same code evaluates
    one pattern or 62 packed patterns per word (bit-parallel fault
    simulation).  [compile] lays the netlist out in flat int arrays: each
    gate's good function becomes a literal program over nets inside one
    code array, and gate inputs, consumer lists and logic levels are
    offset-indexed arrays.  Fault injection ({!eval_fault_into})
    propagates a fault event by event along the consumer lists, one
    logic level at a time, against a good-machine baseline held in a
    {!scratch}. *)

type gate_fn = {
  arity : int;
  cubes : (int * int) array;  (** (care, value) masks over input positions *)
  prog : int array;
      (** [cubes] as a literal program over input positions: per cube its
          literal count, then one [position * 2 + negated] per literal.
          The evaluators of this module read it; {!eval_fn} does not. *)
  table : Truth_table.t;
}

type cgate = {
  g : Netlist.gate;
  ins : int array;  (** input net indices, positional *)
  out : int;
  fn : gate_fn;
}

type t

val compile : Netlist.t -> t

val fn_of_table : Truth_table.t -> gate_fn
(** Compile an arbitrary gate function (e.g. a faulty class function):
    minimize it to [cubes] and compile those to [prog], once. *)

val netlist : t -> Netlist.t
val n_nets : t -> int
val n_inputs : t -> int
val n_outputs : t -> int
val n_gates : t -> int
val po_indices : t -> int array
val net_index : t -> string -> int option
val net_name : t -> int -> string
val gates : t -> cgate array

val consumers : t -> int -> int array
(** [consumers t gid]: the gates that read gate [gid]'s output, in
    ascending — hence topological — id order, each listed once.
    Computed once at [compile] time; fault propagation follows these
    edges.  Returns a fresh copy of the compiled list. *)

val eval_fn : gate_fn -> int array -> int
(** Word-parallel single-gate evaluation: bit j of the result applies the
    function to bit j of each input word.  It evaluates [cubes], not
    [prog], so checks that use it as a reference share nothing with the
    compiled programs. *)

val eval_words : ?override:int * gate_fn -> t -> int array -> int array
(** Evaluate 62 packed patterns; returns the word for every net.
    [override = (gate_id, fn)] substitutes one gate's function (fault
    injection).  Raises [Invalid_argument] when [gate_id] is not a gate
    of the circuit or [fn.arity] exceeds that gate's input count. *)

type scratch = int array
(** Reusable evaluation buffer (one word per net).  A compiled netlist is
    immutable after [compile] and safe to share across domains; a scratch
    buffer holds all of an evaluation's mutable state and must be owned by
    a single domain. *)

val make_scratch : t -> scratch

val eval_words_into : ?override:int * gate_fn -> t -> scratch:scratch -> int array -> unit
(** [eval_words] into a caller-owned buffer: every net's word is written
    into [scratch].  The good-machine sweep of the fault-simulation
    engines: it runs each gate's literal program in topological order,
    reading input words straight from [scratch], and allocates nothing
    (tested: under 0.01 minor words per gate evaluation).  Raises
    [Invalid_argument] on a PI word count or scratch size that does not
    match the circuit, and on an override as {!eval_words} does. *)

(** {1 Event-driven fault injection} *)

type events
(** The mutable state of one {!eval_fault_into} call chain: the event
    queue (one bucket per logic level, each sized to the gates of its
    level), the per-gate queued stamps, and the nets a call overwrote
    with their good words.  Like {!scratch}, it belongs to one domain;
    every call empties the buckets it uses before queueing, so a call
    that raised leaves nothing behind for the next one. *)

val make_events : t -> events

val eval_fault_into :
  ?tally:int ref -> t -> override:int * gate_fn -> scratch:scratch -> events:events -> int
(** Event-driven faulty evaluation of one fault over 62 packed patterns.
    [scratch] must hold a completed good-machine evaluation of the PI
    words of interest.  The overridden gate is evaluated first; when its
    faulty word equals its good word the fault is not activated and the
    call ends there.  Otherwise the gates reading a changed net are
    queued in the bucket of their logic level, and the buckets are
    drained in increasing level order — a gate is only queued from a
    lower level, so its bucket is complete when it is reached — so only
    gates with a changed input are re-evaluated, each after all of its
    inputs; a net counts as changed only when its word differs from the
    good word, and primary-output differences are ORed as they appear.
    Returns the OR over all primary outputs of [faulty lxor good] —
    bit-identical to evaluating the whole faulty circuit — and restores
    the nets it touched, so [scratch] holds the good machine again on
    return.  [tally], when given, accumulates the gate evaluations
    performed: 1 when the fault is not activated, otherwise 1 plus the
    gates re-evaluated (each at most once, all in the fault's transitive
    fanout).  The call allocates nothing (tested: under 0.01 minor words
    per gate evaluation with a preallocated [override] pair and
    [Some tally]).  Raises [Invalid_argument], before touching
    [scratch], when the override names no gate of the circuit or
    [fn.arity] exceeds the gate's input count. *)

val outputs_of_nets : t -> int array -> int array
(** Select the primary-output words from an [eval_words] result. *)

val eval : ?override:int * gate_fn -> t -> bool array -> bool array
(** Single-pattern convenience: primary inputs to primary outputs. *)

val eval_nets : ?override:int * gate_fn -> t -> bool array -> bool array
(** Single-pattern evaluation returning every net's value. *)

val eval_reference : t -> bool array -> bool array
(** Reference evaluation through the cell expressions (cross-checks the
    compiled path in tests). *)

val output_expr : t -> string -> Expr.t
(** Global function of a net over the primary inputs (cone extraction);
    for small networks and PROTEST's exact analyses. *)

open Dynmos_sim

(** PPSFP: the parallel-pattern x parallel-fault kernel.

    A group of [group] fault machines is simulated together against each
    62-pattern word, with all mutable state in a flat (net x lane)
    Bigarray word matrix ({!Compiled.word_matrix}): one cube-cover
    decode per gate is amortized over the whole group and the lane loop
    is unit-stride.  Per group and pattern word the kernel probes each
    machine's own faulty gate against the shared good machine, skips the
    group outright when no machine is activated, and otherwise sweeps
    the group's union fanout cone once, diffing each lane over the
    cone's primary-output gates.
    First detections are bit-identical to the bit-parallel engine
    (frozen fixtures and a QCheck differential pin this).

    The kernel is generic over the fault universe: a site is any
    (gate, faulty function) pair, so cell-level fault classes beyond
    stuck-ats plug in unchanged.  {!Faultsim.run_ppsfp} is the public
    wrapper over {!Campaign.run_patterns}. *)

type fsite = {
  sid : int;                (** dense site id (index into the driver's arrays) *)
  gate : int;               (** gate id of the fault site *)
  fn : Compiled.gate_fn;    (** compiled faulty function *)
}

val default_group : int
(** Default fault-group size (16). *)

val kernel :
  ?group:int ->
  ?trace_site:(sid:int -> start:int -> unit) ->
  Compiled.t ->
  fsite array ->
  bool array array ->
  Kernel.t
(** Build the PPSFP kernel for {!Campaign.run_patterns}.  [sites] must
    be in ascending [sid] = non-decreasing gate order (the order
    {!Faultsim.universe} produces).  [group] is the lane count G of the
    word matrix (raises [Invalid_argument] when < 1): larger groups
    amortize the per-gate decode over more machines but sweep more
    wasted lanes per activation and grow the matrix working set —
    G x n_nets words.  Fault dropping compacts groups between pattern
    units; retired sites are never re-simulated ([trace_site], called
    once per site per pattern unit actually simulated, is the test
    hook pinning that). *)

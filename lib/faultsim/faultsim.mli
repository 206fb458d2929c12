open Dynmos_util
open Dynmos_core
open Dynmos_netlist
open Dynmos_sim

(** Fault simulation over netlists.

    The fault universe is the union over gates of the detectable function
    classes of each gate's fault library — valid precisely because the
    paper's model maps every physical fault of a dynamic gate to a
    combinational function, so classical fault simulation applies
    unchanged.  Four engines — serial (the readable reference),
    bit-parallel (62 patterns/word), PPSFP (fault groups per pattern
    word) and the multicore domains engine — inject each fault into its
    fanout cone only and produce identical detection results
    (cross-checked in tests against an independent deductive
    fault-list-propagation oracle and against {!detects}). *)

type site = {
  sid : int;                 (** dense site id *)
  gate : Netlist.gate;
  entry : Faultlib.entry;    (** the fault-equivalence class injected *)
  fn : Compiled.gate_fn;     (** compiled faulty function *)
}

type universe = {
  compiled : Compiled.t;
  sites : site array;
  libraries : (string * Faultlib.t) list;
}

val universe : ?electrical:Fault_map.electrical -> Netlist.t -> universe
(** Build the fault universe (one site per gate per detectable function
    class; libraries generated once per distinct cell). *)

val validate_universe : universe -> unit
(** Structural validation against the circuit: sids must be dense array
    indices, every site's gate id must exist in the compiled circuit, and
    no (gate, function class) pair may appear twice.  Raises
    [Invalid_argument] with a named description of the first violation.
    {!universe} and {!restrict_universe} validate their results; call
    this yourself when assembling or slicing a universe by hand. *)

val restrict_universe : universe -> gates:int list -> universe
(** The sub-universe containing only the fault sites of the listed gate
    ids, renumbered densely (every engine accepts the result unchanged).
    Raises [Invalid_argument] on out-of-range or duplicate gate ids. *)

val n_sites : universe -> int

val site_label : universe -> site -> string

type summary = Campaign.summary = {
  n_sites : int;
  n_patterns : int;
  first_detection : int option array;  (** per site: first detecting pattern *)
  outcome : Outcome.t;
      (** [Complete], or [Partial] with the stop cause (deadline /
          evaluation budget / interrupt) and any permanently-failed
          sites.  Detections gathered before a stop are always
          returned. *)
  patterns_done : int;
      (** patterns completed for every live site: a partial run's
          detections are exactly the unlimited run's detections within
          this prefix, for every engine. *)
  sites_done : int;
      (** sites whose result is final: everything except failed sites on
          a complete run; the detected sites on a stopped run. *)
}

val n_detected : summary -> int

val coverage : summary -> float
(** Detected fraction over the {e whole} universe — on a [Partial] run
    this is the conservative lower bound (unresolved sites count as
    undetected). *)

val coverage_of_done : summary -> float
(** Detected fraction over [sites_done] — the optimistic companion on
    partial runs; equals {!coverage} on complete, failure-free runs. *)

val undetected : universe -> summary -> site list

val coverage_curve : summary -> float array
(** [curve.(k)] = fraction of sites detected within the first [k]
    patterns (length [n_patterns + 1]). *)

val detects : universe -> site -> bool array -> bool
(** Does one pattern detect one site? *)

(** Every engine is a thin wrapper over the unified campaign driver
    ({!Campaign}): limits, checkpointing, obs accounting, fault dropping,
    supervision and the all-detected early exit are implemented exactly
    once there, so the four entry points cannot drift apart.

    Every engine re-evaluates only the fault site's transitive fanout
    cone against the good-machine baseline ({!Compiled.eval_cone_into}),
    exiting immediately when the fault is not activated.  This is
    bit-identical to whole-circuit injection: a fault can only influence
    its fanout cone.

    Every engine takes an optional observability recorder [obs] (default
    disabled, one branch of overhead): when enabled it receives one
    ["faultsim.run"] event per run carrying the engine name, site and
    pattern counts, wall-clock time, the number of kernel evaluations
    performed ("evals") and the evaluations skipped by fault dropping or
    the all-detected early exit ("evals_saved").  Both counts follow one
    driver-level definition — {e one evaluation per live site per
    pattern unit} — so engines with the same unit report identical
    totals on the same campaign (serial sweeps one pattern per unit;
    bit-parallel, PPSFP and the domains engine sweep one 62-pattern word
    per unit).  Gate-level work is reported separately: every engine
    carries "gate_evals" (gate evaluations performed) and "cone_gates"
    (the summed fanout-cone size over all sites), and the pattern-sweep
    engines add the gate evaluations the cone restriction avoided
    relative to whole-circuit sweeps ("gate_evals_saved").  The recorder
    never changes results: with and without [obs], summaries are
    bit-identical (tested).

    {b Robustness} (see also {!Outcome}, {!Limits}, {!Checkpoint}):
    every engine takes [?deadline] (absolute epoch seconds),
    [?max_evals] (a gate-evaluation budget) and [?interrupt] (a polled
    cooperative stop flag).  A tripped limit stops the sweep cleanly at
    pattern-unit granularity and the summary's [outcome] records the
    cause; detections gathered so far are returned, never discarded, and
    {!coverage} is then the conservative lower bound.  Every engine also
    takes [?checkpoint] (build with {!checkpoint_ctl}): progress is
    persisted every interval and at return, and a controller carrying a
    validated resume state continues {e bit-identically} — each pattern
    is evaluated exactly once across the combined runs, in ascending
    order, so no first detection can move.

    The single-fault engines ({!run_serial}, {!run_parallel},
    {!run_domain_parallel}) additionally supervise per-site evaluation
    (on whichever domain evaluates the site):
    a site whose faulty function raises is retried (bounded by
    [?max_attempts], default 3; the good-machine baseline is restored
    first) and, if it keeps raising, excluded and reported in the
    outcome's [failed_sites] — every other site's detections are
    identical to a clean run.  [?crash_hook] (default no-op, called with
    the site id before each evaluation) is the fault-injection point the
    supervision tests use.  {!run_ppsfp} propagates a group of sites
    jointly, so a raising site cannot be isolated there; it supports
    limits and checkpoints only.

    Every engine also takes [?on_progress] (default no-op), called on
    the sweeping domain after each completed pattern unit with the
    patterns done and the running detection count.  This is the
    streaming hook [dynmos serve] uses for partial-result responses; the
    callback must be cheap and must not raise. *)

val run_serial :
  ?drop:bool ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?max_attempts:int ->
  ?backoff:Parallel_exec.Backoff.t ->
  ?chaos:Dynmos_chaos.Chaos.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary
(** Serial engine: one pattern per unit, one cone evaluation per live
    site — the readable reference the other engines are measured
    against. *)

val run_parallel :
  ?drop:bool ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?max_attempts:int ->
  ?backoff:Parallel_exec.Backoff.t ->
  ?chaos:Dynmos_chaos.Chaos.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary
(** Bit-parallel engine: the serial kernel with 62 patterns packed per
    machine word. *)

val run_ppsfp :
  ?drop:bool ->
  ?group:int ->
  ?trace_site:(sid:int -> start:int -> unit) ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary
(** PPSFP engine: a group of [group] (default 16) fault machines
    simulated together against each 62-pattern word on a flat Bigarray
    (net x lane) word matrix — one cube decode per gate amortized over
    the whole group, unit-stride lane loops (see {!Ppsfp}).  Each
    machine's own gate is probed against the good machine and, when any
    machine is activated, the group's union fanout cone is swept once.
    [first_detection] is bit-identical to {!run_parallel} for every
    [group] and [drop].  Fault dropping compacts groups between pattern
    units, so retired sites are never re-simulated ([trace_site] is the
    test hook observing which sites each unit touches). *)

val run_domain_parallel :
  ?drop:bool ->
  ?num_domains:int ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?max_attempts:int ->
  ?backoff:Parallel_exec.Backoff.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary
(** Multicore engine: {!run_parallel} with each 62-pattern unit's live
    sites split across OCaml 5 domains ({!Parallel_exec.split}).  The
    calling domain packs the unit and sweeps the good machine once; it
    and the helpers of a campaign-private {!Parallel_exec.Scheduler},
    spawned once per campaign, each evaluate blocks of sites with
    private scratch state.  Patterns advance one unit at a time under
    the same driver as every other engine, so [first_detection],
    partial results (pattern prefixes) and checkpoints (interchangeable
    with the other engines') are {!run_parallel}'s for every
    [num_domains] and [drop].

    [num_domains] (default [Domain.recommended_domain_count ()]) is a
    ceiling: the campaign starts at most one domain per site and per
    50 000 gate evaluations of static work estimate (sites x words x
    gates), so a small campaign starts no domain at all; and the helpers
    sit out any unit after one that performed fewer than 10 000 gate
    evaluations.
    The ["faultsim.run"] event reports ["requested_domains"] and
    ["effective_domains"] (the calling domain plus the helpers that
    started).  There is no [?chaos]: a chaos schedule replays from one
    sweeping domain, which {!run_parallel} provides. *)

val random_patterns :
  ?weights:float array -> Prng.t -> n_inputs:int -> count:int -> bool array array
(** Weighted random patterns ([weights.(i)] = probability input [i] is 1;
    default uniform 0.5).  Raises [Invalid_argument] when [n_inputs] or
    [count] is negative, when [weights] has fewer than [n_inputs]
    entries, or when any weight is outside [0, 1]. *)

val max_exhaustive_inputs : int
(** Largest input count {!exhaustive_patterns} accepts (24: past that the
    table no longer fits in memory, and [1 lsl n] eventually overflows). *)

val exhaustive_patterns : int -> bool array array
(** All [2^n] patterns in row order.  Raises [Invalid_argument] when [n]
    is negative or exceeds {!max_exhaustive_inputs}. *)

(** {1 Checkpointing}

    Campaign digests pin a checkpoint file to the exact circuit, fault
    universe and pattern set that produced it; resuming against anything
    else is refused ({!Checkpoint.Error}).  The digests cover campaign
    identity only — engine choice, domain count and [drop] are free to
    differ between the producing and resuming runs: every engine's
    checkpoint resumes under every other engine. *)

val circuit_digest : universe -> string
val universe_digest : universe -> string
val patterns_digest : bool array array -> string

val checkpoint_ctl :
  path:string ->
  interval:int ->
  ?resume:bool ->
  ?prng_state:string ->
  ?chaos:Dynmos_chaos.Chaos.t ->
  universe ->
  bool array array ->
  Checkpoint.ctl
(** Build the checkpoint controller to pass as [?checkpoint] to any
    engine: computes the campaign digests and, when [resume] is true and
    [path] (or its [.bak] sibling) exists, loads and validates the saved
    state — falling back to the [.bak] when the primary is corrupt or
    missing, see {!Checkpoint.load_or_backup} (a {e missing} pair under
    [resume] is a fresh start, not an error — a campaign killed before
    its first tick left nothing behind).  Stale temp files from crashed
    writers are cleaned up on creation.  [interval] is in completed
    patterns.  [prng_state] (a {!Prng.save} token) is stored for
    diagnostics; resume regenerates patterns from the seed and validates
    them via the pattern digest.  [chaos] is threaded into every write
    (the [ckpt.write] / [ckpt.fsync] / [ckpt.rename] points). *)

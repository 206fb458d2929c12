open Dynmos_util
open Dynmos_core
open Dynmos_netlist
open Dynmos_sim

(** Fault simulation over netlists.

    The fault universe is the union over gates of the detectable function
    classes of each gate's fault library — valid precisely because the
    paper's model maps every physical fault of a dynamic gate to a
    combinational function, so classical fault simulation applies
    unchanged.  Two campaign entry points — {!run_serial} (the readable
    reference, one pattern per unit) and {!run_ppsfp} (62 patterns per
    word, optionally split across domains) — propagate one fault at a
    time, event by event, from its own gate, and produce identical
    detection results (cross-checked in tests against an independent
    deductive fault-list-propagation oracle and against {!detects}). *)

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

(** Both entry points are thin wrappers over the unified campaign
    driver ({!Campaign}): limits, checkpointing, counters, fault
    dropping, supervision and the all-detected early exit are
    implemented exactly once there, so the two cannot drift apart.

    Every engine propagates each fault event by event against the
    good-machine baseline ({!Compiled.eval_fault_into}): it stops at
    the faulty gate when the fault is not activated, and otherwise
    re-evaluates only gates with a changed input.  This is bit-identical
    to whole-circuit injection.

    Every engine counts its work in one {!Campaign.counts} record, the
    same with or without a recorder: [on_counts] receives it on return,
    and an enabled [obs] recorder (default disabled, one branch of
    overhead) gets it as one ["faultsim.run"] event after the engine
    name, site and pattern counts, outcome and wall-clock time.  "evals"
    and "evals_saved" (kernel evaluations performed, and skipped by
    fault dropping or the all-detected early exit) follow one
    driver-level definition — {e one evaluation per live site per
    pattern unit} — so runs with the same unit report identical totals
    on the same campaign (serial sweeps one pattern per unit; PPSFP one
    62-pattern word per unit, at every domain count).  "gate_evals"
    counts gate evaluations performed, and "gate_evals_saved" those
    event-driven propagation avoided relative to whole-circuit sweeps.
    Neither changes results: summaries are bit-identical (tested).

    {b Robustness} (see also {!Outcome}, {!Limits}, {!Checkpoint}):
    every engine takes [?deadline] (absolute epoch seconds),
    [?max_evals] (a gate-evaluation budget) and [?interrupt] (a polled
    cooperative stop flag).  A tripped limit stops the sweep cleanly at
    pattern-unit granularity and the summary's [outcome] records the
    cause; detections gathered so far are returned, never discarded, and
    {!coverage} is then the conservative lower bound.  Every engine also
    takes [?checkpoint] (build with {!checkpoint_ctl}): progress is
    persisted every interval (a failed write is retried one interval
    later) and at return, and a controller carrying a
    validated resume state continues {e bit-identically} — each pattern
    is evaluated exactly once across the combined runs, in ascending
    order, so no first detection can move.

    Every engine also supervises per-site evaluation (on whichever
    domain evaluates the site):
    a site whose faulty function raises is retried at once (3 attempts
    in all; the good-machine baseline is restored first) and, if it keeps
    raising, excluded and reported in the
    outcome's [failed_sites] — every other site's detections are
    identical to a clean run.  [?crash_hook] (default no-op, called with
    the site id before each evaluation) is the fault-injection point the
    supervision tests use.

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
  ?on_counts:(Campaign.counts -> unit) ->
  ?chaos:Dynmos_chaos.Chaos.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary
(** Serial engine: one pattern per unit, one fault propagation per live
    site — the readable reference {!run_ppsfp} is measured against. *)

val run_ppsfp :
  ?drop:bool ->
  ?num_domains:int ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?on_counts:(Campaign.counts -> unit) ->
  ?chaos:Dynmos_chaos.Chaos.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  universe ->
  bool array array ->
  summary
(** PPSFP engine as Waicukauski et al. define it ("Fault simulation for
    structured VLSI", 1985): 62 patterns per word, one fault at a time,
    propagation that stops where the faulty word stops differing from
    the good one.

    [num_domains] (default 1) caps the domains that split each unit's
    live sites ({!Parallel_exec.split}): the calling domain packs the
    unit and sweeps the good machine, then it and the helpers of a
    campaign-private {!Parallel_exec.Scheduler} evaluate blocks of
    sites.  At most one domain starts per site and per 50 000 gate
    evaluations of static estimate (sites x words x gates), none under
    an armed [chaos] registry (its schedule replays from one domain),
    and helpers sit out any unit after one of fewer than 2 000 gate
    evaluations.  Results, partial results and checkpoints do not depend
    on [num_domains].  The counts report [requested_domains] and
    [effective_domains] (the calling domain plus the helpers that
    started).  Raises [Invalid_argument] when [num_domains] < 1. *)

val word_bits : int
(** Patterns per {!run_ppsfp} unit: one machine word, 62. *)

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
  ?digests:string * string * string ->
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
    (the [ckpt.write] / [ckpt.fsync] / [ckpt.rename] points).
    [digests], when given, is [(circuit_digest u, universe_digest u,
    patterns_digest patterns)] as the caller already computed it, and
    is used unchecked in place of hashing the circuit, universe and
    patterns again: the server keeps the first two per circuit and
    hashes each job's patterns once for its cache key. *)

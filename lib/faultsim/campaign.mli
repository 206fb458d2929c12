(** The unified campaign driver.

    One implementation of every campaign policy — limits (precedence
    interrupt > deadline > budget, fixed by the order {!run_patterns}
    checks them in), {!Checkpoint} write/resume, supervision/retry,
    counters, fault dropping and the all-detected early exit — shared by
    both public entry points.  Kernels ({!Kernel.t}) carry only evaluation
    mechanics.

    [Faultsim.run_serial] and [Faultsim.run_ppsfp] are thin wrappers over
    {!run_patterns} and one event-driven injection kernel; serial packs
    one pattern per unit, ppsfp a 62-pattern word, optionally splitting
    each unit's sites across helper domains. *)

type summary = {
  n_sites : int;
  n_patterns : int;
  first_detection : int option array;
  outcome : Outcome.t;
  patterns_done : int;
  sites_done : int;
}

val detected_count : int option array -> int

type counts = {
  evals : int;  (** kernel evaluations: one per live site per pattern unit *)
  evals_saved : int;  (** site x unit evaluations skipped by dropping or the early exit *)
  retries : int;  (** supervised re-evaluations after a raise *)
  chaos_injected : int;  (** faults the [chaos] registry injected, at any point *)
  good_evals : int;  (** good-machine sweeps: one per unit run *)
  gate_evals : int;  (** gate evaluations performed: the budget's unit *)
  gate_evals_saved : int;  (** against one whole-circuit sweep per kernel evaluation *)
  requested_domains : int;
  effective_domains : int;
}
(** One run's work counters, filled by {!run_patterns} whether or not a
    recorder is enabled. *)

val count_fields : counts -> (string * Dynmos_obs.Obs.value) list
(** The counters as the ["faultsim.run"] event lists them, after
    ["dt_s"], in declaration order. *)

val run_fields :
  engine:string -> dt_s:float -> summary -> counts -> (string * Dynmos_obs.Obs.value) list
(** The whole ["faultsim.run"] field list: engine, sites, patterns,
    outcome, patterns done, sites done, [dt_s], then {!count_fields}. *)

val run_patterns :
  ?drop:bool ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?on_counts:(counts -> unit) ->
  ?chaos:Dynmos_chaos.Chaos.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  n_sites:int ->
  total:int ->
  Kernel.t ->
  summary
(** Drive a pattern-sweep kernel over [total] patterns.  The driver owns
    the per-site detection state, the drop/early-exit decisions, the
    run's {!counts} (one kernel evaluation per live site per pattern
    unit), checkpoint preload/tick/finalize, the limits and the
    ["faultsim.run"] obs emission.  [on_counts] receives the counts
    once, on return.

    After every unit the sweeping domain checks [interrupt], then
    [deadline] (absolute epoch seconds), then [max_evals] against the
    run's gate evaluations so far; the first that trips stops the sweep
    and is the [Partial] outcome's cause.  A run may overshoot a limit
    by at most one unit.  Raises [Invalid_argument] when [max_evals]
    < 1.

    A supervised evaluation that raises is retried at once, up to three
    attempts in all; [chaos] (default disabled) arms the [exec.job]
    injection point inside the supervised region, so injected faults
    exercise the retry path itself.  The kernel may call the
    supervision service from helper domains, one domain per site within
    a unit; [crash_hook] then runs on those domains too.

    [on_progress] (default no-op) is called after every pattern unit
    with the patterns completed so far and the running detection count —
    the streaming hook the serve loop uses.  It runs on the sweeping
    domain; keep it cheap and never let it raise. *)

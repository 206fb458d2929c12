(** The unified campaign driver.

    One implementation of every campaign policy — {!Limits} (precedence
    interrupt > deadline > budget, fixed by the gauge's polling order),
    {!Checkpoint} write/resume, supervision/retry, obs events, fault
    dropping and the all-detected early exit — shared by both public
    entry points.  Kernels ({!Kernel.t}) carry only evaluation
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

val run_patterns :
  ?drop:bool ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?backoff:Parallel_exec.Backoff.t ->
  ?chaos:Dynmos_chaos.Chaos.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  n_sites:int ->
  total:int ->
  Kernel.t ->
  summary
(** Drive a pattern-sweep kernel over [total] patterns.  The driver owns
    the per-site detection state, the drop/early-exit decisions, the
    unified [evals]/[evals_saved] accounting (one kernel evaluation per
    live site per pattern unit), checkpoint preload/tick/finalize, the
    limits gauge (fed the kernel's gate-level work
    at unit boundaries) and the ["faultsim.run"] obs emission.

    Supervised retries back off exponentially with jitter ([backoff],
    default [Parallel_exec.Backoff.default]); [chaos] (default disabled)
    arms the [exec.job] injection point inside the supervised region, so
    injected faults exercise the retry path itself.  The kernel may call
    the supervision service from helper domains, one domain per site
    within a unit; [crash_hook] then runs on those domains too.

    [on_progress] (default no-op) is called after every pattern unit
    with the patterns completed so far and the running detection count —
    the streaming hook the serve loop uses.  It runs on the sweeping
    domain; keep it cheap and never let it raise. *)

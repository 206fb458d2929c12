open Dynmos_sim

(** The unified campaign driver.

    One implementation of every campaign policy — {!Limits} (precedence
    interrupt > deadline > budget, fixed by the gauge's polling order),
    {!Checkpoint} write/resume, supervision/retry, obs events, fault
    dropping and the all-detected early exit — shared by all four public
    engines.  Kernels ({!Kernel.t}) carry only evaluation mechanics.

    [Faultsim.run_serial] / [run_parallel] / [run_ppsfp] are thin
    wrappers over {!run_patterns}; [Faultsim.run_domain_parallel] wraps
    {!run_sites}. *)

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
  ?max_attempts:int ->
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
    live site per pattern unit), checkpoint preload/tick/finalize in
    [Patterns] mode, the limits gauge (fed the kernel's gate-level work
    at unit boundaries) and the ["faultsim.run"] obs emission.

    Supervised retries back off exponentially with jitter ([backoff],
    default [Parallel_exec.Backoff.default]); [chaos] (default disabled)
    arms the [exec.job] injection point inside the supervised region, so
    injected faults exercise the retry path itself.

    [on_progress] (default no-op) is called after every pattern unit
    with the patterns completed so far and the running detection count —
    the streaming hook the serve loop uses.  It runs on the sweeping
    domain; keep it cheap and never let it raise. *)

val run_sites :
  ?drop:bool ->
  ?num_domains:int ->
  ?min_work_per_domain:int ->
  ?obs:Dynmos_obs.Obs.t ->
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  ?checkpoint:Checkpoint.ctl ->
  ?max_attempts:int ->
  ?backoff:Parallel_exec.Backoff.t ->
  ?crash_hook:(int -> unit) ->
  ?on_progress:(units_done:int -> detected:int -> unit) ->
  ?extra_fields:(string * Dynmos_obs.Obs.value) list ->
  Compiled.t ->
  Parallel_exec.job array ->
  bool array array ->
  summary * Parallel_exec.report * Parallel_exec.stats
(** Drive the site-sweep domains engine: checkpoint preload/tick/
    finalize in [Sites] mode, gauge creation, outcome assembly and obs
    emission live here; per-site retry and cross-domain degradation are
    delegated to {!Parallel_exec.run_supervised} (inherently
    pool-level).  [jobs] must carry dense [jid]s ([0..n-1]); jobs whose
    site a resumed checkpoint already completed are not re-submitted.
    [extra_fields] is appended to the ["faultsim.run"] obs event.

    [on_progress] here reports {e sites} done (this engine sweeps
    sites), with the detected count read under the pool's progress
    mutex.  It may be called from any worker domain. *)

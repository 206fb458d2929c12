open Dynmos_sim

(** Domain-parallel fault-simulation core (OCaml 5 [Domain]s, no
    Domainslib): chunked work-stealing over fault-injection jobs via a
    single atomic cursor.  Every job runs the bit-parallel fanout-cone
    kernel (62 patterns per word, {!Compiled.eval_cone_into}).  The
    compiled netlist and packed pattern data are shared read-only; each
    domain owns a private [Compiled.scratch] and writes only its claimed
    jobs' result slots.

    [Faultsim.run_domain_parallel] is the high-level entry point; this
    module is exposed for callers that carry their own fault-site
    representation. *)

type job = {
  jid : int;              (** slot in the result array *)
  gate_id : int;          (** netlist gate whose function is overridden *)
  fn : Compiled.gate_fn;  (** compiled faulty function *)
}

(** The pool is {e supervised}: a job whose evaluation raises is retried
    a bounded number of times in isolation and, if it keeps raising,
    reported per-site instead of tearing the campaign down; failed
    [Domain.spawn]s degrade gracefully to fewer domains (down to the
    calling one) because every domain steals from the same cursor.  See
    {!run_supervised}. *)

val word_bits : int
(** Patterns per machine word (62). *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val default_min_work_per_domain : int
(** Estimated gate-evaluations of work required per spawned domain
    before the engine is willing to spawn it (see {!run_supervised}). *)

(** {1 Run statistics} *)

type domain_stats = {
  dom : int;          (** 0 is the calling domain *)
  jobs_claimed : int;
  evals : int;        (** kernel evaluations performed (one per job x
                          62-pattern chunk) *)
  evals_saved : int;  (** evaluations skipped thanks to fault dropping *)
  gate_evals : int;   (** gate evaluations those kernel calls performed *)
  busy_s : float;     (** wall-clock time inside job kernels *)
  steal_s : float;    (** wall-clock time claiming work from the cursor *)
}

type stats = {
  requested_domains : int;
  effective_domains : int;  (** after clamping to jobs and work estimate *)
  n_jobs : int;
  n_patterns : int;
  n_chunks : int;
  work_estimate : int;      (** jobs x chunks x gates *)
  prepare_s : float;        (** pattern packing + fault-free responses *)
  spawn_s : float;
  join_s : float;
  total_s : float;
  per_domain : domain_stats array;  (** empty when there was nothing to do *)
}

type report = {
  stopped : Outcome.stop_cause option;
      (** why the sweep stopped early ([None] = ran to the end) *)
  failed_sites : (int * string) list;
      (** jobs that kept raising after bounded retries, sorted by jid:
          (jid, exception message).  Their result slots are [None];
          every other slot is identical to a clean run. *)
  sites_done : int;
      (** result slots fully evaluated (including preloaded ones) *)
  done_mask : bool array;  (** per-slot completion (the array passed as
                               [?done_mask], or a fresh one) *)
  retries : int;           (** isolated re-runs performed *)
  spawn_failures : int;    (** [Domain.spawn] calls that failed *)
  worker_crashes : int;    (** worker loops that died outside the
                               per-job handlers (recovered by requeue) *)
  backoff_sleeps : int;    (** retries preceded by a backoff sleep *)
}
(** What the supervisor observed: how much of the sweep completed and
    every degradation it absorbed. *)

(** Exponential backoff with jitter between supervised retry attempts.
    Transient failure causes (injected chaos, a full disk, an
    oversubscribed host) tend to persist for a moment; spacing the
    attempts out — jittered, so concurrent retriers decorrelate — turns
    retry-until-failed into retry-until-recovered.  Sleeps never affect
    results, only wall clock. *)
module Backoff : sig
  type t

  val default : t
  (** 1 ms base doubling per attempt, capped at 50 ms. *)

  val none : t
  (** No sleeping — the pre-backoff immediate-retry behavior (tests). *)

  val make : base_s:float -> cap_s:float -> t
  (** [base_s <= 0] disables sleeping, like {!none}. *)

  val delay : t -> Dynmos_util.Prng.t -> attempt:int -> float
  (** The jittered delay before retry [attempt] (1-based):
      [base * 2^(attempt-1)] capped at [cap_s], scaled into [d/2, d). *)

  val sleep : t -> Dynmos_util.Prng.t -> attempt:int -> float
  (** {!delay}, slept; returns the duration. *)
end

val stats_evals : stats -> int
(** Total evaluations over all domains; with [drop = false] this equals
    [n_jobs * n_chunks], reconciling with the bit-parallel engine. *)

val stats_evals_saved : stats -> int

val stats_gate_evals : stats -> int
(** Total gate evaluations over all domains: at most the summed
    fanout-cone sizes per chunk, typically far below
    [stats_evals x n_gates]. *)

val spawn_dominated : stats -> bool
(** True when the spawn + join cost exceeded the total busy time — the
    workload was too small for the domain count actually used. *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Running} *)

val default_max_attempts : int
(** Evaluation attempts per job before it is declared failed (3). *)

val run_supervised :
  ?drop:bool ->
  ?num_domains:int ->
  ?min_work_per_domain:int ->
  ?obs:Dynmos_obs.Obs.t ->
  ?gauge:Limits.gauge ->
  ?max_attempts:int ->
  ?backoff:Backoff.t ->
  ?crash_hook:(int -> unit) ->
  ?first:int option array ->
  ?done_mask:bool array ->
  ?on_progress:(sites_done:int -> unit) ->
  Compiled.t ->
  job array ->
  bool array array ->
  int option array * report * stats
(** [run_supervised compiled jobs patterns] returns, per [jid], the
    index of the first pattern whose primary outputs differ under the
    job's override — bit-identical to the serial engine for every
    [num_domains] and [drop] setting ([drop], default true, only skips
    work after a site's first detection, never changes results) — plus
    what the supervisor observed and the scheduling statistics.

    Each claimed block of jobs is swept chunk-outer: one good-machine
    baseline load per 62-pattern chunk serves the whole block, and each
    job re-evaluates only its fanout cone against it.

    [num_domains] (default [default_domains ()]) is a ceiling: the
    effective count is clamped to the number of jobs and to one domain
    per [min_work_per_domain] estimated gate-evaluations (default
    {!default_min_work_per_domain}; pass [0] to disable the work clamp),
    so tiny workloads never pay domain-spawn overhead.  [obs] (default
    disabled) receives one ["parallel_exec.domain"] event per domain and
    a ["parallel_exec.run"] event per call.

    Supervision: every job evaluation runs under a per-job exception
    handler.  A raising job is requeued (at most [max_attempts] total
    attempts, default {!default_max_attempts}) and re-run in isolation
    on the calling domain after the main sweep and join; a job that
    keeps raising lands in [report.failed_sites] with its slot [None].
    Either way its partial progress is discarded and re-runs rescan
    every pattern, so surviving results are bit-identical to a clean
    run.  Each retry is preceded by a [backoff] sleep (default
    {!Backoff.default}; pass {!Backoff.none} for the old immediate
    behavior) whose exponent is the job's burned attempt count.
    [crash_hook] is called with the job's [jid] before every
    evaluation — it exists for fault-injection tests and defaults to a
    no-op.

    Limits: [gauge] is polled at job/chunk/block boundaries and fed the
    gate-evaluations performed; when it trips, the sweep stops cleanly
    at the next boundary and [report.stopped] records the cause.  Slots
    not fully evaluated stay unmarked in [report.done_mask].

    Resume support: [first] and [done_mask] (same length, defining the
    result-slot space) may carry preloaded results from a checkpoint —
    pass only the jobs still to run; preloaded slots count toward
    [report.sites_done].  [on_progress] is invoked under the pool's
    progress mutex after each completed block with the running done
    count; a checkpoint snapshot taken inside it observes every done
    slot's final result (in-flight slots may read stale, which is safe
    because resume only trusts slots marked done). *)

(** {1 Persistent scheduler} *)

(** A long-lived supervised worker pool for callers that submit tasks
    continuously (the serve loop) instead of in one batch.  Worker
    domains are spawned once at {!Scheduler.create} and park on a
    condition variable between tasks — an idle pool performs no loop
    iterations ({!Scheduler.wakeups} counts worker-loop passes, which
    the busy-wait regression test bounds).

    Fairness: tasks queue per client and clients are drained
    round-robin, so one client's backlog delays only its own later
    tasks.  {!Scheduler.cancel} drops a disconnected client's queued
    tasks; already-running tasks should be stopped cooperatively (the
    serve loop passes engines an interrupt flag).

    Supervision: a raising task is absorbed (counted in
    {!Scheduler.crashes}); a worker domain never dies to a task.

    Watchdog: an executor loop that escapes (an injected [sched.task]
    fault, an asynchronous exception) restarts on the same domain —
    counted in {!Scheduler.respawns} — after handing its claimed task
    back through an internal rescue queue, so the task is re-executed
    rather than lost.  Executors that failed to spawn are re-attempted
    on the next {!Scheduler.submit}.  A task can be chaos-killed at most
    a bounded number of times before it runs regardless, so even a
    100%-kill schedule cannot starve the pool. *)
module Scheduler : sig
  type task = unit -> unit

  type t

  val create :
    ?num_domains:int -> ?capacity:int -> ?chaos:Dynmos_chaos.Chaos.t -> unit -> t
  (** [num_domains] (default [default_domains ()]) worker domains;
      [capacity] (default unbounded) caps the total queued-task count
      across clients — beyond it {!submit} answers [`Full].
      [Invalid_argument] on non-positive values; fails loudly if no
      worker domain at all could be spawned without chaos (fewer than
      requested degrades silently and is topped back up on submit).
      [chaos] arms the [sched.spawn] and [sched.task] injection
      points. *)

  val submit : t -> client:int -> task -> [ `Ok of int | `Full | `Closed ]
  (** Enqueue on [client]'s FIFO.  [`Ok depth] reports the queued count
      after insertion; [`Full] = capacity reached (nothing enqueued);
      [`Closed] = the scheduler was shut down. *)

  val cancel : t -> client:int -> int
  (** Drop every queued (not yet claimed) task of [client]; returns how
      many were dropped.  Running tasks are unaffected. *)

  val depth : t -> int
  (** Tasks queued and not yet claimed by a worker. *)

  val size : t -> int
  (** Worker domains requested at creation. *)

  val wakeups : t -> int
  (** Worker-loop passes so far.  On a condvar-parked pool this tracks
      the number of tasks executed (plus one final pass per worker at
      shutdown) — the busy-wait regression metric. *)

  val crashes : t -> int
  (** Tasks that raised (absorbed, worker kept running). *)

  val executed : t -> int
  (** Tasks run to completion (including ones that raised). *)

  val respawns : t -> int
  (** Executor recoveries performed by the watchdog: loop restarts after
      an executor death plus spawn top-ups on submit. *)

  val spawn_failures : t -> int
  (** [Domain.spawn] attempts that failed (real or injected). *)

  val live_workers : t -> int
  (** Worker domains currently spawned (≤ {!size}). *)

  val wait_idle : t -> unit
  (** Block until no task is queued or running. *)

  val shutdown : t -> unit
  (** Stop accepting work, let queued tasks finish, join every worker
      domain.  Idempotent; concurrent {!submit}s answer [`Closed]. *)
end

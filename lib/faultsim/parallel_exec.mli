(** Multicore building blocks (OCaml 5 [Domain]s, no Domainslib): retry
    backoff for supervised evaluation, a persistent supervised domain
    pool ({!Scheduler}) and {!split}, which spreads one pattern unit's
    fault sites over such a pool.

    [Faultsim.run_ppsfp ~num_domains] runs the PPSFP kernel under the
    ordinary campaign driver with each 62-pattern unit split across a
    campaign-private {!Scheduler}; the serve loop runs its executors on
    another. *)

val word_bits : int
(** Patterns per machine word (62). *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val default_max_attempts : int
(** Evaluation attempts per site before it is declared failed (3). *)

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

(** {1 Splitting one unit of work} *)

val split :
  Scheduler.t ->
  n:int ->
  block:int ->
  prepare:(unit -> unit) ->
  (slot:int -> int -> int -> unit) ->
  unit
(** [split pool ~n ~block ~prepare body] runs [prepare ()] on the
    calling domain, then [body ~slot lo hi] over the blocks [[lo, hi)] of
    [block] consecutive indices covering [[0, n)], and returns when
    every block has run to completion once.  The calling domain runs as
    [slot = 0]; every worker of [pool] gets one task, [slot]
    [1..Scheduler.size pool], and all claim blocks from one atomic
    cursor, so [slot] names a private scratch area: no two concurrent
    calls share a slot.  The tasks are submitted before [prepare] runs,
    to overlap their wake-up with it, and wait for it to finish before
    claiming; whatever [prepare] writes is visible to every [body] call.
    A block whose helper task died outside [body]'s own handlers is
    re-run on slot 0.  [pool] must be private to the caller
    (its client-0 queue is used and cancelled). *)

module Chaos = Dynmos_chaos.Chaos

(* Multicore building blocks for the fault-simulation engines and the
   serve loop: a persistent supervised domain pool, and [split], which
   spreads one pattern unit's fault sites over that pool.

   [Faultsim.run_ppsfp ~num_domains] runs the PPSFP kernel under the
   ordinary campaign driver; only the inside of a unit is parallel.  The
   calling domain packs the unit's patterns and sweeps the good machine
   once, then it and the pool's helpers claim blocks of sites from one
   atomic cursor, each with private scratch.  Patterns are still
   consumed in ascending units, so first detections, checkpoints and
   partial results are those of a one-domain run.  Blocks (rather than
   single sites) amortize the atomic op; a shared cursor (rather than
   pre-split ranges) load-balances sites whose propagation cost differs
   wildly.

   Correctness-critical sharing audit:
   - [Compiled.t] and the unit's packed input words are read-only while
     a unit runs; every domain evaluates in its own scratch buffer.
   - Each site is claimed by exactly one domain per unit, so per-site
     state (the driver's [first]/[failed] slots, attempt counts) has a
     single writer; everything shared across sites is merged or locked
     by the caller.
   - [split] returns only after every helper task has finished or been
     cancelled, and the scheduler's mutex orders the helpers' writes
     before the caller's reads. *)

let default_domains () = Domain.recommended_domain_count ()

(* --- Persistent scheduler ---------------------------------------------------- *)

(* A long-lived supervised pool for callers that submit work continuously
   (the serve loop) instead of in one batch.  Worker domains are spawned
   once and park on a condition variable between tasks — no sleep-polling,
   so an idle pool costs zero loop iterations ([wakeups] counts passes
   through the worker loop, which a regression test bounds).

   Fairness: tasks are queued per client and clients are drained
   round-robin — a client that floods the queue delays only its own later
   requests, never another client's next one.  [cancel] drops a
   disconnected client's queued tasks in O(queue); tasks already running
   are the submitter's problem (the serve loop hands them a cooperative
   interrupt flag instead).

   Supervision: a task that raises is counted in [crashes] and the worker
   keeps running — a poisoned job can never take an executor down, which
   is the invariant the old single-executor serve loop violated.

   Watchdog: an executor whose *loop* dies (an injected [sched.task]
   fault, an asynchronous exception outside the task handler) restarts on
   the same domain, counted in [respawns]; a claimed-but-unexecuted task
   is first handed back through the rescue queue so it is never lost.
   Executors that failed to spawn at creation ([sched.spawn] chaos or
   real resource exhaustion) are re-attempted on the next [submit], so a
   pool that degraded never stays degraded while work keeps arriving. *)

module Scheduler = struct
  type task = unit -> unit

  exception Executor_killed
  (* Raised (internally) by an injected [sched.task] fault to simulate an
     executor domain dying between claiming a task and finishing it. *)

  (* A task can be chaos-killed at most this many times before it runs
     regardless: bounds the interference of a [fail_prob 1.0] schedule so
     the pool always makes progress (the soak test's no-hang guarantee). *)
  let max_rescues = 10

  type t = {
    m : Mutex.t;
    nonempty : Condition.t;     (* signaled on submit and shutdown *)
    idle : Condition.t;         (* signaled when depth and active reach 0 *)
    queues : (int, task Queue.t) Hashtbl.t;  (* per-client FIFO *)
    rescued : (int * task * int) Queue.t;
        (* (client, task, kill count) handed back by killed executors;
           drained before the round-robin queues to preserve liveness *)
    mutable rr : int list;      (* round-robin order of clients with queued work *)
    capacity : int;
    chaos : Chaos.t;
    mutable depth : int;        (* queued, not yet claimed *)
    mutable active : int;       (* claimed, currently executing *)
    mutable running : bool;
    mutable workers : unit Domain.t list;
    n_workers : int;
    wakeups : int Atomic.t;     (* worker-loop passes; ~tasks executed + shutdown *)
    crashes : int Atomic.t;     (* tasks that raised (absorbed) *)
    respawns : int Atomic.t;    (* executor loops restarted by the watchdog *)
    spawn_failures : int Atomic.t;  (* Domain.spawn attempts that failed *)
  }

  (* Next task: rescued tasks first (they were already claimed once and
     owe their client a response), then the head client of [rr] gives up
     one task and moves to the tail (or leaves [rr] if its queue
     emptied). *)
  let pop_locked t =
    if not (Queue.is_empty t.rescued) then begin
      let entry = Queue.take t.rescued in
      t.depth <- t.depth - 1;
      Some entry
    end
    else
      match t.rr with
      | [] -> None
      | c :: rest -> (
          match Hashtbl.find_opt t.queues c with
          | None -> None  (* unreachable: rr only lists clients with queues *)
          | Some q ->
              let task = Queue.take q in
              t.depth <- t.depth - 1;
              if Queue.is_empty q then begin
                Hashtbl.remove t.queues c;
                t.rr <- rest
              end
              else t.rr <- rest @ [ c ];
              Some (c, task, 0))

  let worker t () =
    let continue = ref true in
    while !continue do
      Mutex.lock t.m;
      while t.running && t.depth = 0 do
        Condition.wait t.nonempty t.m
      done;
      Atomic.incr t.wakeups;
      match pop_locked t with
      | None ->
          (* not running and nothing queued: drain complete, retire *)
          continue := false;
          Mutex.unlock t.m
      | Some (client, task, kills) ->
          t.active <- t.active + 1;
          Mutex.unlock t.m;
          let killed =
            kills < max_rescues
            &&
            match Chaos.decide t.chaos Chaos.Sched_task with
            | Chaos.Pass -> false
            | Chaos.Fail | Chaos.Torn -> true
          in
          if killed then begin
            (* hand the claimed task back before this executor "dies" *)
            Mutex.lock t.m;
            t.active <- t.active - 1;
            Queue.add (client, task, kills + 1) t.rescued;
            t.depth <- t.depth + 1;
            Condition.signal t.nonempty;
            Mutex.unlock t.m;
            raise Executor_killed
          end;
          (try task () with _ -> Atomic.incr t.crashes);
          Mutex.lock t.m;
          t.active <- t.active - 1;
          if t.depth = 0 && t.active = 0 then Condition.broadcast t.idle;
          Mutex.unlock t.m
    done

  (* Watchdog: the domain entry point restarts the worker loop whenever
     it escapes.  The loop only raises from outside the task handler and
     outside the mutex'd sections, so restarting is safe; the alternative
     — letting the domain die — silently narrows the pool. *)
  let rec worker_entry t () =
    match worker t () with
    | () -> ()
    | exception _ ->
        Atomic.incr t.respawns;
        worker_entry t ()

  (* One spawn attempt, under [t.m].  Chaos [sched.spawn] models the
     spawn itself failing (resource exhaustion). *)
  let spawn_locked t =
    let blocked =
      match Chaos.decide t.chaos Chaos.Sched_spawn with
      | Chaos.Fail | Chaos.Torn -> true
      | Chaos.Pass -> false
    in
    if blocked then begin
      Atomic.incr t.spawn_failures;
      false
    end
    else
      match Domain.spawn (worker_entry t) with
      | d ->
          t.workers <- d :: t.workers;
          true
      | exception _ ->
          Atomic.incr t.spawn_failures;
          false

  (* Top up executors that never spawned.  If chaos keeps vetoing and the
     pool is empty while work is queued, force one spawn past the chaos
     tap: the scheduler guarantees at least one live executor whenever
     work exists (again the soak's no-hang bound). *)
  let ensure_workers_locked t =
    if t.running then begin
      let missing = t.n_workers - List.length t.workers in
      for _ = 1 to missing do
        if spawn_locked t then Atomic.incr t.respawns
      done;
      if t.workers = [] && t.depth > 0 then
        match Domain.spawn (worker_entry t) with
        | d ->
            t.workers <- d :: t.workers;
            Atomic.incr t.respawns
        | exception _ -> Atomic.incr t.spawn_failures
    end

  let create ?num_domains ?(capacity = max_int) ?(chaos = Chaos.disabled) () =
    let n =
      match num_domains with
      | None -> max 1 (default_domains ())
      | Some n ->
          if n < 1 then
            invalid_arg
              (Printf.sprintf "Scheduler.create: num_domains must be >= 1 (got %d)" n);
          n
    in
    if capacity < 1 then
      invalid_arg (Printf.sprintf "Scheduler.create: capacity must be >= 1 (got %d)" capacity);
    let t =
      {
        m = Mutex.create ();
        nonempty = Condition.create ();
        idle = Condition.create ();
        queues = Hashtbl.create 8;
        rescued = Queue.create ();
        rr = [];
        capacity;
        chaos;
        depth = 0;
        active = 0;
        running = true;
        workers = [];
        n_workers = n;
        wakeups = Atomic.make 0;
        crashes = Atomic.make 0;
        respawns = Atomic.make 0;
        spawn_failures = Atomic.make 0;
      }
    in
    Mutex.lock t.m;
    for _ = 1 to n do
      ignore (spawn_locked t)
    done;
    Mutex.unlock t.m;
    (* Zero workers is survivable under chaos (submit re-attempts), but
       without chaos it means real resource exhaustion: fail loudly. *)
    if t.workers = [] && not (Chaos.enabled chaos) then
      failwith "Scheduler.create: could not spawn any executor domain";
    t

  let size t = t.n_workers
  let wakeups t = Atomic.get t.wakeups
  let crashes t = Atomic.get t.crashes
  let respawns t = Atomic.get t.respawns
  let spawn_failures t = Atomic.get t.spawn_failures

  let live_workers t =
    Mutex.lock t.m;
    let n = List.length t.workers in
    Mutex.unlock t.m;
    n

  let depth t =
    Mutex.lock t.m;
    let d = t.depth in
    Mutex.unlock t.m;
    d

  let submit t ~client task =
    Mutex.lock t.m;
    let r =
      if not t.running then `Closed
      else if t.depth >= t.capacity then `Full
      else begin
        let q =
          match Hashtbl.find_opt t.queues client with
          | Some q -> q
          | None ->
              let q = Queue.create () in
              Hashtbl.add t.queues client q;
              t.rr <- t.rr @ [ client ];
              q
        in
        Queue.add task q;
        t.depth <- t.depth + 1;
        if List.length t.workers < t.n_workers then ensure_workers_locked t;
        Condition.signal t.nonempty;
        `Ok t.depth
      end
    in
    Mutex.unlock t.m;
    r

  let cancel t ~client =
    Mutex.lock t.m;
    let n =
      match Hashtbl.find_opt t.queues client with
      | None -> 0
      | Some q ->
          let n = Queue.length q in
          Hashtbl.remove t.queues client;
          t.rr <- List.filter (fun c -> c <> client) t.rr;
          t.depth <- t.depth - n;
          n
    in
    (* the client's rescued tasks are cancelled too: a kill-recover cycle
       must not resurrect work for a connection that is gone *)
    let keep = Queue.create () in
    let dropped = ref 0 in
    Queue.iter
      (fun ((c, _, _) as e) -> if c = client then incr dropped else Queue.add e keep)
      t.rescued;
    Queue.clear t.rescued;
    Queue.transfer keep t.rescued;
    t.depth <- t.depth - !dropped;
    let n = n + !dropped in
    if t.depth = 0 && t.active = 0 then Condition.broadcast t.idle;
    Mutex.unlock t.m;
    n

  let wait_idle t =
    Mutex.lock t.m;
    while t.depth > 0 || t.active > 0 do
      Condition.wait t.idle t.m
    done;
    Mutex.unlock t.m

  (* Graceful: queued tasks still execute (workers only retire once the
     queue is empty), then every worker domain is joined.  Idempotent. *)
  let shutdown t =
    Mutex.lock t.m;
    let ws = t.workers in
    t.running <- false;
    t.workers <- [];
    Condition.broadcast t.nonempty;
    Mutex.unlock t.m;
    List.iter Domain.join ws
end

(* --- Splitting one unit across a pool ---------------------------------------- *)

(* The calling domain is slot 0 and each pool worker gets one task, slot
   1..size; all claim blocks from one atomic cursor.  The tasks are
   submitted before [prepare] runs, so a parked worker's wake-up
   overlaps the caller's set-up; a task that wakes first spins on [go]
   for the rest of it.

   Once the caller's claims come up empty, helper tasks still queued are
   cancelled (they would find nothing left) and the caller spins until
   every started task has finished its block — a block or less, so
   spinning beats a condition-variable round trip.  A task that starts
   after that finds the cursor exhausted and touches nothing.  A helper
   task that died outside [body]'s own handlers leaves its block
   unmarked; the caller re-runs it, so no site of the unit is lost. *)
let split pool ~n ~block ~prepare body =
  let slots = Scheduler.size pool + 1 in
  let n_blocks = (n + block - 1) / block in
  let next = Atomic.make 0 in
  let finished = Array.make n_blocks false in
  let go = Atomic.make 0 (* 0: preparing, 1: claim, 2: abandoned *) in
  let running = Atomic.make 0 in
  let run_block slot b = body ~slot (b * block) (min n ((b + 1) * block)) in
  let rec claim slot =
    let b = Atomic.fetch_and_add next 1 in
    if b < n_blocks then begin
      run_block slot b;
      finished.(b) <- true;
      claim slot
    end
  in
  let helper slot () =
    Atomic.incr running;
    Fun.protect
      ~finally:(fun () -> Atomic.decr running)
      (fun () ->
        while Atomic.get go = 0 do
          Domain.cpu_relax ()
        done;
        if Atomic.get go = 1 then claim slot)
  in
  for slot = 1 to slots - 1 do
    ignore (Scheduler.submit pool ~client:0 (helper slot))
  done;
  Fun.protect
    ~finally:(fun () ->
      (* also on an exception: a failed [prepare] abandons the unit, and
         no helper may outlive it *)
      ignore (Atomic.compare_and_set go 0 2);
      ignore (Scheduler.cancel pool ~client:0);
      while Atomic.get running > 0 do
        Domain.cpu_relax ()
      done)
    (fun () ->
      prepare ();
      Atomic.set go 1;
      claim 0);
  Array.iteri (fun b fin -> if not fin then run_block 0 b) finished

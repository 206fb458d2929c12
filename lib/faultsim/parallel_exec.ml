open Dynmos_sim
module Obs = Dynmos_obs.Obs
module Chaos = Dynmos_chaos.Chaos
module Prng = Dynmos_util.Prng

(* Domain-parallel fault-simulation core.

   The fault universe is embarrassingly parallel across fault sites: each
   site's simulation touches only (a) the shared read-only compiled
   netlist and pattern data and (b) its own slot of the result array.  So
   the engine partitions *sites* across domains and leaves the pattern
   loop sequential inside each site — that keeps first-detection
   semantics trivially identical to the serial engine (patterns are
   always scanned in ascending order).

   Scheduling is a hand-rolled chunked work-stealing pool (no Domainslib):
   a single [Atomic.t] cursor over the site array; every domain claims
   blocks of [block] consecutive sites with [fetch_and_add] until the
   cursor passes the end.  Blocks (rather than single sites) amortize the
   atomic op; stealing from a shared cursor (rather than pre-splitting
   ranges) load-balances sites whose faulty cones differ wildly in size.

   Domain count clamping: spawning a domain costs tens of microseconds on
   an idle multicore host and milliseconds on an oversubscribed one, so
   tiny workloads must not pay it.  The effective domain count is clamped
   to (a) the number of jobs — more domains than jobs can only idle — and
   (b) one domain per [min_work_per_domain] gate-evaluations of estimated
   work, so each spawned domain has enough work to amortize its spawn.
   The clamp never changes results (every domain count produces identical
   output); [stats] reports requested vs effective counts and the
   spawn/join cost so the cases where spawn would have dominated are
   visible rather than silently slow.

   Supervision (see [run_supervised]): the pool never lets one bad fault
   site take the campaign down.  Every job evaluation runs under a
   per-job exception handler; a job that raises is requeued with a
   bounded attempt count and re-run in isolation on the calling domain
   after the main sweep, and a job that keeps raising is reported in
   [report.failed_sites] — every *other* site's detections are identical
   to a clean run.  [Domain.spawn] failure degrades gracefully: the
   shared-cursor design means whatever domains did start (down to just
   the calling domain) simply drain the whole queue.  Limits
   ([Limits.gauge]) are polled at block/chunk boundaries and stop the
   sweep cleanly, recording which sites completed.

   Correctness-critical sharing audit (see Compiled):
   - [Compiled.t] is immutable after [compile]; shared read-only.  OK.
   - All mutable evaluation state lives in a [Compiled.scratch] buffer;
     each worker allocates its own and threads it through every call.
   - The result array is written at [job.jid] only, and each jid is
     claimed by exactly one domain: disjoint writes, no tearing (OCaml
     array writes of immediates/pointers are domain-atomic).
   - Pattern words and good-value arrays are computed once, before the
     domains spawn, and only read afterwards.
   - Per-domain stats are written to a private slot of [per_domain] by
     the owning worker and only read after every domain is joined.
   - Supervision state (attempt counts, retry queue, failure list, the
     done bitmap and counter) is guarded by mutexes; [first] slots of
     *done* jobs are published via the progress mutex (marked done only
     under it, after the owning worker's writes), so a progress callback
     snapshotting under that mutex sees consistent (first, done) pairs.
     In-flight jobs' [first] slots may be read stale by a snapshot —
     harmless, because resume only trusts slots marked done. *)

type job = {
  jid : int;            (* slot in the result array *)
  gate_id : int;        (* netlist gate to override *)
  fn : Compiled.gate_fn;  (* compiled faulty function *)
}

let word_bits = 62

type domain_stats = {
  dom : int;
  jobs_claimed : int;
  evals : int;
  evals_saved : int;
  gate_evals : int;
  busy_s : float;
  steal_s : float;
}

type stats = {
  requested_domains : int;
  effective_domains : int;
  n_jobs : int;
  n_patterns : int;
  n_chunks : int;
  work_estimate : int;
  prepare_s : float;
  spawn_s : float;
  join_s : float;
  total_s : float;
  per_domain : domain_stats array;
}

type report = {
  stopped : Outcome.stop_cause option;
  failed_sites : (int * string) list;
  sites_done : int;
  done_mask : bool array;
  retries : int;
  spawn_failures : int;
  worker_crashes : int;
  backoff_sleeps : int;
}

(* Exponential backoff with jitter for supervised retries.  An immediate
   retry of a site that crashed on a transient cause (injected chaos, a
   momentarily-full disk, an oversubscribed host) tends to hit the same
   cause again; spacing attempts out exponentially — with jitter so
   simultaneous retriers decorrelate — is the standard cure.  Sleep
   durations never influence results, only wall clock, so the jitter PRNG
   needs no seeding discipline. *)
module Backoff = struct
  type t = { base_s : float; cap_s : float }

  let default = { base_s = 0.001; cap_s = 0.05 }
  let none = { base_s = 0.0; cap_s = 0.0 }
  let make ~base_s ~cap_s = { base_s; cap_s }

  (* Delay before retry [attempt] (1-based): base * 2^(attempt-1), capped,
     then jittered into [d/2, d). *)
  let delay t prng ~attempt =
    if t.base_s <= 0.0 then 0.0
    else
      let d = t.base_s *. float_of_int (1 lsl min 16 (max 0 (attempt - 1))) in
      let d = Float.min d t.cap_s in
      d *. (0.5 +. (0.5 *. Prng.float prng))

  let sleep t prng ~attempt =
    let d = delay t prng ~attempt in
    if d > 0.0 then Unix.sleepf d;
    d
end

let stats_evals s = Array.fold_left (fun acc d -> acc + d.evals) 0 s.per_domain
let stats_evals_saved s = Array.fold_left (fun acc d -> acc + d.evals_saved) 0 s.per_domain
let stats_gate_evals s = Array.fold_left (fun acc d -> acc + d.gate_evals) 0 s.per_domain

let spawn_dominated s =
  let busy = Array.fold_left (fun acc d -> acc +. d.busy_s) 0.0 s.per_domain in
  s.effective_domains > 1 && s.spawn_s +. s.join_s > busy

let pp_stats ppf s =
  Format.fprintf ppf
    "domains: requested %d, effective %d (%d jobs, %d patterns, ~%d gate-evals estimated, %d performed)@."
    s.requested_domains s.effective_domains s.n_jobs s.n_patterns s.work_estimate
    (stats_gate_evals s);
  Format.fprintf ppf "prepare %.6f s, spawn %.6f s, join %.6f s, total %.6f s@." s.prepare_s
    s.spawn_s s.join_s s.total_s;
  Array.iter
    (fun d ->
      Format.fprintf ppf
        "  domain %d: %d jobs, %d evals (%d gate-evals), %d saved by dropping, busy %.6f s, steal %.6f s@."
        d.dom d.jobs_claimed d.evals d.gate_evals d.evals_saved d.busy_s d.steal_s)
    s.per_domain;
  if spawn_dominated s then
    Format.fprintf ppf "  note: spawn/join time exceeds total busy time — workload too small for %d domains@."
      s.effective_domains;
  if s.effective_domains < s.requested_domains then
    Format.fprintf ppf "  note: clamped from %d requested domains (jobs or estimated work too small)@."
      s.requested_domains

(* Per-worker evaluation tally, threaded through the block runner.
   [t_evals] counts kernel invocations (one per job x chunk attempted —
   the unit the bit-parallel engine's driver counts too, which is what
   the cross-engine reconciliation tests rely on); [t_gate] counts the
   gate evaluations those invocations performed. *)
type tally = { mutable t_evals : int; mutable t_saved : int; mutable t_gate : int }

(* One packed chunk of <= 62 patterns with its fault-free response.
   [nets] is the complete good-machine evaluation (every net, not just
   the POs): the baseline [Compiled.eval_cone_into] starts from. *)
type chunk = {
  start : int;          (* pattern index of bit 0 *)
  mask : int;           (* valid-bit mask (len low bits) *)
  nets : int array;     (* fault-free words for every net *)
}

let pack_chunks compiled (patterns : bool array array) =
  let n_inputs = Compiled.n_inputs compiled in
  let total = Array.length patterns in
  let n_chunks = (total + word_bits - 1) / word_bits in
  let scratch = Compiled.make_scratch compiled in
  Array.init n_chunks (fun c ->
      let start = c * word_bits in
      let len = min word_bits (total - start) in
      let words = Array.make n_inputs 0 in
      for j = 0 to len - 1 do
        let p = patterns.(start + j) in
        for i = 0 to n_inputs - 1 do
          if p.(i) then words.(i) <- words.(i) lor (1 lsl j)
        done
      done;
      Compiled.eval_words_into compiled ~scratch words;
      {
        start;
        mask = (if len >= word_bits then max_int else (1 lsl len) - 1);
        nets = Array.copy scratch;
      })

(* Supervision context threaded into the block runner.  [hook] is the
   crash-injection point (identity in production; tests raise from it);
   [crashed] flags jobs that raised in the current pass so the block
   runner stops touching them; [record] books a crash (bounded requeue or
   permanent failure); [should_stop]/[spend] poll and feed the limit
   gauge. *)
type sup_ctx = {
  hook : int -> unit;
  crashed : bool array;                 (* per jid *)
  record : int -> int -> exn -> unit;   (* job index, jid, exn *)
  should_stop : unit -> bool;
  spend : int -> unit;                  (* gate evaluations *)
}

(* Block runner: chunk-outer over a claimed block of jobs, each job
   re-evaluating only its fanout cone ([Compiled.eval_cone_into]).  The
   chunk's full baseline is blitted into [scratch] once per (chunk,
   block) and [Compiled.eval_cone_into] restores it after every job, so
   the whole block shares one baseline load.  Dropping is a per-job skip
   (a found job stops being evaluated on later chunks) plus a block-level
   exit once every job in the block is found; both are accounted so
   t_evals/t_saved match the bit-parallel pattern-sweep engine
   invocation for invocation.

   A job that raises mid-cone leaves [scratch] partially overwritten
   ([eval_cone_into] only restores on normal return), so the handler
   re-blits the chunk baseline before moving on — the next job in the
   block sees an intact good machine.  Crashed jobs are flagged and
   skipped on the remaining chunks; their partial detections are
   discarded ([record] resets the slot) so a later isolated re-run is
   bit-identical to a clean scan.

   Returns the exclusive end of the fully-completed job prefix: [stop+1]
   when every chunk was scanned, [start] when a limit stopped the block
   between chunks (no job in the block saw every pattern). *)
let run_block ~drop ctx compiled chunks (jobs : job array) (first : int option array) scratch
    buf tally start stop =
  let n_chunks = Array.length chunks in
  let n_nets = Compiled.n_nets compiled in
  let block_jobs = stop - start + 1 in
  let remaining = ref block_jobs in
  let gate_tally = ref tally.t_gate in
  let c = ref 0 in
  let stopped = ref false in
  while !c < n_chunks && not (drop && !remaining = 0) && not !stopped do
    if ctx.should_stop () then stopped := true
    else begin
      let ch = chunks.(!c) in
      Array.blit ch.nets 0 scratch 0 n_nets;
      let g0 = !gate_tally in
      for j = start to stop do
        let job = jobs.(j) in
        if ctx.crashed.(job.jid) then ()
        else if drop && first.(job.jid) <> None then tally.t_saved <- tally.t_saved + 1
        else begin
          tally.t_evals <- tally.t_evals + 1;
          match
            ctx.hook job.jid;
            Compiled.eval_cone_into ~tally:gate_tally compiled ~override:(job.gate_id, job.fn)
              ~scratch ~buf
          with
          | diff ->
              let diff = diff land ch.mask in
              if diff <> 0 && first.(job.jid) = None then begin
                let rec lowest k = if (diff lsr k) land 1 = 1 then k else lowest (k + 1) in
                first.(job.jid) <- Some (ch.start + lowest 0);
                if drop then decr remaining
              end
          | exception exn ->
              Array.blit ch.nets 0 scratch 0 n_nets;
              ctx.record j job.jid exn;
              decr remaining
        end
      done;
      ctx.spend (!gate_tally - g0);
      incr c
    end
  done;
  tally.t_gate <- !gate_tally;
  if !c < n_chunks && not !stopped then
    tally.t_saved <- tally.t_saved + ((n_chunks - !c) * block_jobs);
  if !stopped then start else stop + 1

let default_domains () = Domain.recommended_domain_count ()

(* One domain per this many estimated gate-evaluations of work (a gate
   evaluation is the innermost cube loop, tens of nanoseconds): a spawned
   domain should have at least ~1 ms of work so its spawn/join cost stays
   marginal even on a loaded host. *)
let default_min_work_per_domain = 50_000

let default_max_attempts = 3

let run_supervised ?(drop = true) ?num_domains
    ?(min_work_per_domain = default_min_work_per_domain) ?(obs = Obs.disabled)
    ?(gauge = Limits.gauge Limits.none) ?(max_attempts = default_max_attempts)
    ?(backoff = Backoff.default) ?(crash_hook = fun (_ : int) -> ()) ?first:first_init
    ?done_mask:done_init ?(on_progress = fun ~sites_done:(_ : int) -> ()) compiled
    (jobs : job array) (patterns : bool array array) =
  let t_total0 = Obs.now () in
  if max_attempts < 1 then invalid_arg "Parallel_exec.run_supervised: max_attempts must be >= 1";
  let requested =
    match num_domains with
    | Some n ->
        if n < 1 then invalid_arg "Parallel_exec.run_supervised: num_domains must be >= 1";
        n
    | None -> default_domains ()
  in
  let n = Array.length jobs in
  let n_patterns = Array.length patterns in
  let n_chunks = (n_patterns + word_bits - 1) / word_bits in
  let n_slots =
    match first_init with
    | Some a -> Array.length a
    | None -> Array.fold_left (fun acc j -> max acc (j.jid + 1)) n jobs
  in
  let first = match first_init with Some a -> a | None -> Array.make n_slots None in
  let done_mask = match done_init with Some a -> a | None -> Array.make n_slots false in
  if Array.length done_mask <> n_slots then
    invalid_arg "Parallel_exec.run_supervised: first and done_mask lengths differ";
  Array.iter
    (fun j ->
      if j.jid < 0 || j.jid >= n_slots then
        invalid_arg
          (Printf.sprintf "Parallel_exec.run_supervised: jid %d outside result array of %d"
             j.jid n_slots))
    jobs;
  (* supervision state, all guarded by [sup_lock] *)
  let sup_lock = Mutex.create () in
  let attempts = Array.make n_slots 0 in
  let crashed = Array.make n_slots false in
  let retry_q = Queue.create () in
  let failures = ref [] in
  let retries = ref 0 in
  let worker_crashes = ref 0 in
  let spawn_failures = ref 0 in
  let backoff_sleeps = ref 0 in
  let backoff_prng = Prng.create 0x0b0f (* jitter only; never affects results *) in
  (* progress state, guarded by [progress_lock]; [done_count] includes
     any preloaded (resumed) sites *)
  let progress_lock = Mutex.create () in
  let done_count = ref (Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 done_mask) in
  let record j jid exn =
    Mutex.lock sup_lock;
    crashed.(jid) <- true;
    first.(jid) <- None;
    attempts.(jid) <- attempts.(jid) + 1;
    if attempts.(jid) >= max_attempts then
      failures := (jid, Printexc.to_string exn) :: !failures
    else Queue.add j retry_q;
    Mutex.unlock sup_lock
  in
  let ctx =
    {
      hook = crash_hook;
      crashed;
      record;
      should_stop = (fun () -> Limits.check gauge);
      spend = Limits.add_evals gauge;
    }
  in
  let work_estimate = n * n_chunks * Compiled.n_gates compiled in
  let work_cap =
    if min_work_per_domain <= 0 then max_int else max 1 (work_estimate / min_work_per_domain)
  in
  let effective = max 1 (min requested (min (max 1 n) work_cap)) in
  let finish ~prepare_s ~spawn_s ~join_s ~per_domain =
    let stats =
      {
        requested_domains = requested;
        effective_domains = effective;
        n_jobs = n;
        n_patterns;
        n_chunks;
        work_estimate;
        prepare_s;
        spawn_s;
        join_s;
        total_s = Obs.now () -. t_total0;
        per_domain;
      }
    in
    let report =
      {
        stopped = Limits.stopped gauge;
        failed_sites = List.sort compare !failures;
        sites_done = !done_count;
        done_mask;
        retries = !retries;
        spawn_failures = !spawn_failures;
        worker_crashes = !worker_crashes;
        backoff_sleeps = !backoff_sleeps;
      }
    in
    if Obs.enabled obs then begin
      Array.iter
        (fun d ->
          Obs.emit obs ~ev:"parallel_exec.domain"
            [
              ("dom", Obs.Int d.dom);
              ("jobs_claimed", Obs.Int d.jobs_claimed);
              ("evals", Obs.Int d.evals);
              ("evals_saved", Obs.Int d.evals_saved);
              ("gate_evals", Obs.Int d.gate_evals);
              ("busy_s", Obs.Float d.busy_s);
              ("steal_s", Obs.Float d.steal_s);
            ])
        stats.per_domain;
      List.iter
        (fun (jid, msg) ->
          Obs.emit obs ~ev:"parallel_exec.job_failed"
            [
              ("jid", Obs.Int jid);
              ("attempts", Obs.Int attempts.(jid));
              ("error", Obs.String msg);
            ])
        report.failed_sites;
      Obs.emit obs ~ev:"parallel_exec.run"
        [
          ("requested_domains", Obs.Int stats.requested_domains);
          ("effective_domains", Obs.Int stats.effective_domains);
          ("jobs", Obs.Int stats.n_jobs);
          ("patterns", Obs.Int stats.n_patterns);
          ("chunks", Obs.Int stats.n_chunks);
          ("work_estimate", Obs.Int stats.work_estimate);
          ("evals", Obs.Int (stats_evals stats));
          ("evals_saved", Obs.Int (stats_evals_saved stats));
          ("gate_evals", Obs.Int (stats_gate_evals stats));
          ("spawn_dominated", Obs.Bool (spawn_dominated stats));
          ("sites_done", Obs.Int report.sites_done);
          ("retries", Obs.Int report.retries);
          ("failed_jobs", Obs.Int (List.length report.failed_sites));
          ("spawn_failures", Obs.Int report.spawn_failures);
          ("worker_crashes", Obs.Int report.worker_crashes);
          ("backoff_sleeps", Obs.Int report.backoff_sleeps);
          ( "stopped",
            Obs.String
              (match report.stopped with
              | Some c -> Outcome.stop_cause_name c
              | None -> "none") );
          ("prepare_s", Obs.Float stats.prepare_s);
          ("spawn_s", Obs.Float stats.spawn_s);
          ("join_s", Obs.Float stats.join_s);
          ("total_s", Obs.Float stats.total_s);
        ]
    end;
    (first, report, stats)
  in
  if n = 0 || n_patterns = 0 then
    finish ~prepare_s:0.0 ~spawn_s:0.0 ~join_s:0.0 ~per_domain:[||]
  else begin
    let t_prep0 = Obs.now () in
    (* [run_block scratch buf tally start stop] processes one claimed
       block of jobs and returns the exclusive end of the job prefix
       that completed (jobs past it were skipped by a tripped limit;
       crashed jobs inside the prefix are flagged in [ctx.crashed]). *)
    let run_block = run_block ~drop ctx compiled (pack_chunks compiled patterns) jobs first in
    (* mark the completed, non-crashed jobs of [start..fin-1] done and
       report progress — under the progress mutex, so a checkpoint
       snapshot taken inside [on_progress] observes every done job's
       final [first] slot (the marker's writes happen-before via this
       mutex) *)
    let mark_done start fin =
      if fin > start then begin
        Mutex.lock progress_lock;
        for j = start to fin - 1 do
          let jid = jobs.(j).jid in
          if (not crashed.(jid)) && not done_mask.(jid) then begin
            done_mask.(jid) <- true;
            incr done_count
          end
        done;
        let sites_done = !done_count in
        (try on_progress ~sites_done
         with exn ->
           Mutex.unlock progress_lock;
           raise exn);
        Mutex.unlock progress_lock
      end
    in
    let prepare_s = Obs.now () -. t_prep0 in
    let next = Atomic.make 0 in
    let block = max 1 (n / (effective * 8)) in
    let per_domain =
      Array.init effective (fun di ->
          {
            dom = di;
            jobs_claimed = 0;
            evals = 0;
            evals_saved = 0;
            gate_evals = 0;
            busy_s = 0.0;
            steal_s = 0.0;
          })
    in
    (* [cur.(di)] is the block domain [di] is currently processing: if a
       worker dies outside the per-job handlers (a supervision bug, an
       asynchronous exception), the survivors' join path requeues that
       block instead of losing it *)
    let cur = Array.make effective None in
    let worker di () =
      let scratch = Compiled.make_scratch compiled in
      let buf = Compiled.make_cone_buffer compiled in
      let tally = { t_evals = 0; t_saved = 0; t_gate = 0 } in
      let claimed = ref 0 in
      let busy = ref 0.0 in
      let steal = ref 0.0 in
      let continue = ref true in
      while !continue do
        let t0 = Obs.now () in
        let start = Atomic.fetch_and_add next block in
        let t1 = Obs.now () in
        steal := !steal +. (t1 -. t0);
        if start >= n || ctx.should_stop () then continue := false
        else begin
          let stop = min n (start + block) - 1 in
          cur.(di) <- Some (start, stop);
          let fin =
            try run_block scratch buf tally start stop
            with exn ->
              (* block-level escape (outside the per-job handlers):
                 requeue every job in the block that has not already
                 been booked as crashed — re-running a job that did in
                 fact finish is idempotent (the retry resets its slot
                 and rescans every pattern) *)
              for j = start to stop do
                let jid = jobs.(j).jid in
                if not crashed.(jid) then record j jid exn
              done;
              start
          in
          mark_done start fin;
          cur.(di) <- None;
          claimed := !claimed + (stop - start + 1);
          busy := !busy +. (Obs.now () -. t1)
        end
      done;
      per_domain.(di) <-
        {
          dom = di;
          jobs_claimed = !claimed;
          evals = tally.t_evals;
          evals_saved = tally.t_saved;
          gate_evals = tally.t_gate;
          busy_s = !busy;
          steal_s = !steal;
        }
    in
    let t_spawn0 = Obs.now () in
    let helpers =
      Array.init (effective - 1) (fun i ->
          let di = i + 1 in
          try
            Some
              (Domain.spawn (fun () ->
                   try worker di ()
                   with exn ->
                     (* the worker loop itself died; requeue its
                        in-flight block so the post-join retry pass
                        recovers it, and flag the degradation *)
                     Mutex.lock sup_lock;
                     incr worker_crashes;
                     Mutex.unlock sup_lock;
                     (match cur.(di) with
                     | Some (start, stop) ->
                         for j = start to stop do
                           let jid = jobs.(j).jid in
                           if (not crashed.(jid)) && not done_mask.(jid) then record j jid exn
                         done
                     | None -> ())))
          with _spawn_failed ->
            (* Domain.spawn itself failed (resource exhaustion): degrade
               gracefully — the shared cursor means the domains that did
               start (down to just the calling one) drain everything *)
            incr spawn_failures;
            None)
    in
    let spawn_s = Obs.now () -. t_spawn0 in
    (try worker 0 ()
     with exn ->
       Mutex.lock sup_lock;
       incr worker_crashes;
       Mutex.unlock sup_lock;
       (match cur.(0) with
       | Some (start, stop) ->
           for j = start to stop do
             let jid = jobs.(j).jid in
             if (not crashed.(jid)) && not done_mask.(jid) then record j jid exn
           done
       | None -> ()));
    let t_join0 = Obs.now () in
    Array.iter (Option.iter Domain.join) helpers;
    let join_s = Obs.now () -. t_join0 in
    (* Retry pass: isolated re-runs on the calling domain, after every
       helper has quiesced (so the queue is stable and the crashed flags
       race with nobody).  Each re-run resets the job's slot and rescans
       every pattern — bit-identical to a clean evaluation. *)
    if not (Queue.is_empty retry_q) then begin
      let scratch = Compiled.make_scratch compiled in
      let buf = Compiled.make_cone_buffer compiled in
      let rtally = { t_evals = 0; t_saved = 0; t_gate = 0 } in
      let continue = ref true in
      while !continue && not (ctx.should_stop ()) do
        match Queue.take_opt retry_q with
        | None -> continue := false
        | Some j ->
            incr retries;
            let jid = jobs.(j).jid in
            (* back off before the retry: the attempt count this job has
               already burned sets the exponent *)
            if Backoff.sleep backoff backoff_prng ~attempt:attempts.(jid) > 0.0 then
              incr backoff_sleeps;
            crashed.(jid) <- false;
            first.(jid) <- None;
            let fin =
              try run_block scratch buf rtally j j
              with exn ->
                if not crashed.(jid) then record j jid exn;
                j
            in
            if fin > j && not crashed.(jid) then mark_done j (j + 1)
      done;
      if Array.length per_domain > 0 then begin
        let d = per_domain.(0) in
        per_domain.(0) <-
          {
            d with
            evals = d.evals + rtally.t_evals;
            evals_saved = d.evals_saved + rtally.t_saved;
            gate_evals = d.gate_evals + rtally.t_gate;
          }
      end
    end;
    finish ~prepare_s ~spawn_s ~join_s ~per_domain
  end

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
    executed : int Atomic.t;
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
          Atomic.incr t.executed;
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
        executed = Atomic.make 0;
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
  let executed t = Atomic.get t.executed
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

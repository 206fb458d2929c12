module Obs = Dynmos_obs.Obs
module Chaos = Dynmos_chaos.Chaos

(* The unified campaign driver.

   Every fault-simulation engine is "run a universe of faults against a
   pattern source and report detection"; what differs is only the inner
   evaluation kernel.  Engines that each re-implement the campaign
   policies — limits, checkpoint write/resume, supervision, obs
   accounting, fault dropping, the all-detected early exit — drift
   apart, so this module implements each policy exactly once:

   - {!run_patterns} drives a pattern-sweep {!Kernel.t} (serial,
     bit-parallel, PPSFP) one pattern unit at a time;
   - {!run_sites} drives the site-sweep domains engine over the
     supervised work-stealing pool, owning the same checkpoint, gauge,
     outcome and obs plumbing.

   Limits precedence is fixed by [Limits.check]'s polling order
   (interrupt > deadline > max_evals) and both drivers poll the same
   gauge, so every engine resolves simultaneous limits identically. *)

type summary = {
  n_sites : int;
  n_patterns : int;
  first_detection : int option array;  (* per site: index of first detecting pattern *)
  outcome : Outcome.t;       (* did the campaign finish, and if not, why *)
  patterns_done : int;       (* patterns completed for every live site
                                (pattern-sweep engines; the site-sweep
                                domains engine reports [n_patterns] when
                                complete and 0 on a partial stop —
                                its progress lives in [sites_done]) *)
  sites_done : int;          (* sites whose result is final *)
}

let detected_count first =
  Array.fold_left (fun acc d -> match d with Some _ -> acc + 1 | None -> acc) 0 first

(* --- Observability -------------------------------------------------------- *)

(* Per-run totals: the driver tallies plain ints (an int add is noise
   next to a netlist evaluation) and emits one "faultsim.run" event when
   the recorder is enabled; a disabled recorder costs the [Obs.enabled]
   branch and never reads the clock.  The "evals" field counts kernel
   evaluations under one driver-level definition — one per live site per
   pattern unit — identical across every pattern-sweep engine on the
   same campaign; "evals_saved" counts the site x unit evaluations
   skipped by fault dropping or the all-detected early exit.  Gate-level
   work (where the cone restriction shows up) is reported separately as
   "gate_evals". *)

let start_time obs = if Obs.enabled obs then Obs.now () else 0.0

let emit_run obs ~engine ~n_sites ~n_patterns ?(outcome = Outcome.Complete) ?(patterns_done = 0)
    ?(sites_done = 0) ~t0 fields =
  if Obs.enabled obs then
    Obs.emit obs ~ev:"faultsim.run"
      (("engine", Obs.String engine)
      :: ("sites", Obs.Int n_sites)
      :: ("patterns", Obs.Int n_patterns)
      :: ("outcome", Obs.String (Outcome.to_string outcome))
      :: ("patterns_done", Obs.Int patterns_done)
      :: ("sites_done", Obs.Int sites_done)
      :: ("dt_s", Obs.Float (Obs.now () -. t0))
      :: fields)

let emit_site_failed obs ~engine failed_sites =
  if Obs.enabled obs then
    List.iter
      (fun (sid, msg) ->
        Obs.emit obs ~ev:"faultsim.site_failed"
          [ ("engine", Obs.String engine); ("sid", Obs.Int sid); ("error", Obs.String msg) ])
      failed_sites

let emit_checkpoint obs ~engine ctl ~units_done =
  if Obs.enabled obs then
    Obs.emit obs ~ev:"faultsim.checkpoint"
      [
        ("engine", Obs.String engine);
        ("path", Obs.String (Checkpoint.path ctl));
        ("units_done", Obs.Int units_done);
        ("writes", Obs.Int (Checkpoint.writes ctl));
      ]

(* --- Shared plumbing ------------------------------------------------------- *)

let make_gauge ?deadline ?max_evals ?interrupt () =
  Limits.gauge (Limits.make ?deadline ?max_evals ?interrupt ())

let default_max_attempts = Parallel_exec.default_max_attempts

(* Preload a patterns-mode resume state: trusted detections are blitted
   in and the scan continues after the last fully-completed pattern. *)
let preload_patterns ~engine checkpoint (first : int option array) =
  match checkpoint with
  | None -> 0
  | Some ctl -> (
      Checkpoint.require_mode ctl Checkpoint.Patterns ~engine;
      match Checkpoint.resume_state ctl with
      | None -> 0
      | Some st ->
          Array.blit st.Checkpoint.first_detection 0 first 0 (Array.length first);
          st.Checkpoint.units_done)

let tick_patterns checkpoint ~obs ~engine ~units_done ~first =
  match checkpoint with
  | None -> ()
  | Some ctl ->
      if Checkpoint.tick ctl ~mode:Checkpoint.Patterns ~units_done ~first_detection:first ()
      then emit_checkpoint obs ~engine ctl ~units_done

let finalize_patterns checkpoint ~obs ~engine ~units_done ~first =
  match checkpoint with
  | None -> ()
  | Some ctl ->
      Checkpoint.finalize ctl ~mode:Checkpoint.Patterns ~units_done ~first_detection:first ();
      emit_checkpoint obs ~engine ctl ~units_done

(* --- Pattern-sweep driver --------------------------------------------------- *)

let run_patterns ?(drop = true) ?(obs = Obs.disabled) ?deadline ?max_evals ?interrupt
    ?checkpoint ?(max_attempts = default_max_attempts) ?(backoff = Parallel_exec.Backoff.default)
    ?(chaos = Chaos.disabled) ?(crash_hook = fun (_ : int) -> ())
    ?(on_progress = fun ~units_done:(_ : int) ~detected:(_ : int) -> ()) ~n_sites:n ~total
    (kernel : Kernel.t) =
  let t0 = start_time obs in
  let engine = kernel.Kernel.name in
  let first = Array.make n None in
  let failed = Array.make n false in
  let dropped = Array.make n false in
  let attempts = Array.make n 0 in
  let failures = ref [] in
  let undetected = ref n in
  let evals = ref 0 and saved = ref 0 in
  let work = ref 0 in
  let retries = ref 0 in
  let backoff_sleeps = ref 0 in
  let backoff_prng = Dynmos_util.Prng.create 0x0b0f (* jitter only; never affects results *) in
  let gauge = make_gauge ?deadline ?max_evals ?interrupt () in
  let pos = ref (preload_patterns ~engine checkpoint first) in
  Array.iteri
    (fun i d ->
      if d <> None then begin
        decr undetected;
        if drop then dropped.(i) <- true
      end)
    first;
  let detect ~sid ~pat =
    if first.(sid) = None then begin
      first.(sid) <- Some pat;
      decr undetected;
      if drop then dropped.(sid) <- true
    end
  in
  (* Bounded retry at this very unit, so a transient crash cannot skip a
     pattern and move the site's first detection; a mid-cone exception
     leaves shared scratch dirty, which [restore] repairs before anyone
     reads it again.  Retries back off exponentially with jitter (pass
     [Backoff.none] for the old immediate behavior); the [exec.job]
     chaos tap sits beside [crash_hook], inside the supervised region,
     so injected faults exercise exactly this path. *)
  let supervise ~sid ~restore f =
    let rec attempt () =
      match
        crash_hook sid;
        Chaos.tap chaos Chaos.Exec_job;
        f ()
      with
      | v -> Some v
      | exception exn ->
          restore ();
          attempts.(sid) <- attempts.(sid) + 1;
          if attempts.(sid) >= max_attempts then begin
            failed.(sid) <- true;
            failures := (sid, Printexc.to_string exn) :: !failures;
            None
          end
          else begin
            incr retries;
            if
              Parallel_exec.Backoff.sleep backoff backoff_prng ~attempt:attempts.(sid) > 0.0
            then incr backoff_sleeps;
            attempt ()
          end
    in
    attempt ()
  in
  let ctx = { Kernel.drop; first; failed; dropped; work; detect; supervise } in
  let stopping = ref false in
  (* Early exit: once every site is detected (and dropping is on), the
     remaining patterns can neither detect anything new nor simulate
     anything — skip them entirely. *)
  while !pos < total && (not (drop && !undetected = 0)) && not !stopping do
    let len = kernel.Kernel.unit_len ~start:!pos in
    (* Unified accounting, decided before the kernel runs: one kernel
       evaluation per live site per unit; a dropped site's unit is
       saved; a failed site is out of both counts. *)
    for sid = 0 to n - 1 do
      if failed.(sid) then ()
      else if drop && first.(sid) <> None then incr saved
      else incr evals
    done;
    let w0 = !work in
    kernel.Kernel.run_unit ctx ~start:!pos ~len;
    pos := !pos + len;
    Limits.add_evals gauge (!work - w0);
    if Limits.check gauge then stopping := true;
    tick_patterns checkpoint ~obs ~engine ~units_done:!pos ~first;
    on_progress ~units_done:!pos ~detected:(n - !undetected)
  done;
  let live = n - Array.fold_left (fun a f -> if f then a + 1 else a) 0 failed in
  if !pos < total && not !stopping then
    saved := !saved + (live * kernel.Kernel.units_remaining ~start:!pos);
  finalize_patterns checkpoint ~obs ~engine ~units_done:!pos ~first;
  let failed_sites = List.sort compare !failures in
  let outcome = Outcome.make ?stopped:(Limits.stopped gauge) ~failed_sites () in
  (* A stopped pattern sweep has resolved exactly the detected sites (a
     detection is final once found; undetected sites still had patterns
     to see); a finished sweep has resolved everything but the failed
     sites. *)
  let sites_done =
    if !stopping then detected_count first else n - List.length failed_sites
  in
  emit_site_failed obs ~engine failed_sites;
  emit_run obs ~engine ~n_sites:n ~n_patterns:total ~outcome ~patterns_done:!pos ~sites_done
    ~t0
    (("evals", Obs.Int !evals)
    :: ("evals_saved", Obs.Int !saved)
    :: ("retries", Obs.Int !retries)
    :: ("backoff_sleeps", Obs.Int !backoff_sleeps)
    :: ("chaos_injected", Obs.Int (Chaos.injected chaos))
    :: kernel.Kernel.obs_fields
         { Kernel.evals = !evals; evals_saved = !saved; work = !work });
  { n_sites = n; n_patterns = total; first_detection = first; outcome; patterns_done = !pos;
    sites_done }

(* --- Site-sweep driver (domains engine) ------------------------------------- *)

(* The multicore engine sweeps *sites*, not patterns, over the
   supervised work-stealing pool; per-site retry and cross-domain
   degradation are delegated to [Parallel_exec.run_supervised] (they are
   inherently pool-level), but the campaign policies — checkpoint
   preload/tick/finalize, gauge creation, outcome assembly, obs
   emission — live here, in the same driver layer as the pattern-sweep
   engines.  Site-mode checkpoints carry a done bitmap plus the done
   sites' detections; on resume, done sites are preloaded and their jobs
   never submitted to the pool (idempotent — a site's scan has no
   cross-site state).  Progress snapshots are taken from inside the
   pool's progress mutex, which orders them after the detections they
   cover. *)

let run_sites ?drop ?num_domains ?min_work_per_domain ?(obs = Obs.disabled) ?deadline
    ?max_evals ?interrupt ?checkpoint ?max_attempts ?backoff ?crash_hook
    ?(on_progress = fun ~units_done:(_ : int) ~detected:(_ : int) -> ())
    ?(extra_fields = []) compiled (jobs : Parallel_exec.job array) patterns =
  let t0 = start_time obs in
  let n = Array.length jobs in
  let total = Array.length patterns in
  let first = Array.make n None in
  let done_mask = Array.make n false in
  (match checkpoint with
  | None -> ()
  | Some ctl -> (
      Checkpoint.require_mode ctl Checkpoint.Sites ~engine:"domains";
      match Checkpoint.resume_state ctl with
      | None -> ()
      | Some st -> (
          match st.Checkpoint.site_done with
          | None -> ()
          | Some d ->
              Array.iteri
                (fun i dn ->
                  if dn then begin
                    done_mask.(i) <- true;
                    first.(i) <- st.Checkpoint.first_detection.(i)
                  end)
                d)));
  let pending =
    jobs
    |> Array.to_seq
    |> Seq.filter (fun j -> not done_mask.(j.Parallel_exec.jid))
    |> Array.of_seq
  in
  let gauge = make_gauge ?deadline ?max_evals ?interrupt () in
  (* Both callbacks run under the pool's progress mutex, which makes the
     detected count read consistent with the sites just marked done. *)
  let pool_progress ~sites_done =
    (match checkpoint with
    | None -> ()
    | Some ctl ->
        if
          Checkpoint.tick ctl ~mode:Checkpoint.Sites ~units_done:sites_done
            ~first_detection:first ~site_done:done_mask ()
        then emit_checkpoint obs ~engine:"domains" ctl ~units_done:sites_done);
    on_progress ~units_done:sites_done ~detected:(detected_count first)
  in
  let rfirst, report, stats =
    Parallel_exec.run_supervised ?drop ?num_domains ?min_work_per_domain ~obs
      ~gauge ?max_attempts ?backoff ?crash_hook ~first ~done_mask ~on_progress:pool_progress
      compiled pending patterns
  in
  assert (rfirst == first);
  (match checkpoint with
  | None -> ()
  | Some ctl ->
      Checkpoint.finalize ctl ~mode:Checkpoint.Sites
        ~units_done:report.Parallel_exec.sites_done ~first_detection:first
        ~site_done:done_mask ();
      emit_checkpoint obs ~engine:"domains" ctl ~units_done:report.Parallel_exec.sites_done);
  let outcome =
    Outcome.make ?stopped:report.Parallel_exec.stopped
      ~failed_sites:report.Parallel_exec.failed_sites ()
  in
  let sites_done = report.Parallel_exec.sites_done in
  let patterns_done = if Outcome.is_complete outcome then total else 0 in
  emit_site_failed obs ~engine:"domains" report.Parallel_exec.failed_sites;
  emit_run obs ~engine:"domains" ~n_sites:n ~n_patterns:total ~outcome ~patterns_done
    ~sites_done ~t0
    ([
       ("evals", Obs.Int (Parallel_exec.stats_evals stats));
       ("evals_saved", Obs.Int (Parallel_exec.stats_evals_saved stats));
       ("gate_evals", Obs.Int (Parallel_exec.stats_gate_evals stats));
     ]
    @ extra_fields
    @ [
        ("effective_domains", Obs.Int stats.Parallel_exec.effective_domains);
        ("retries", Obs.Int report.Parallel_exec.retries);
        ("spawn_failures", Obs.Int report.Parallel_exec.spawn_failures);
        ("worker_crashes", Obs.Int report.Parallel_exec.worker_crashes);
        ("backoff_sleeps", Obs.Int report.Parallel_exec.backoff_sleeps);
      ]);
  ( { n_sites = n; n_patterns = total; first_detection = first; outcome; patterns_done;
      sites_done },
    report,
    stats )

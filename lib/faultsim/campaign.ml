module Obs = Dynmos_obs.Obs
module Chaos = Dynmos_chaos.Chaos

(* The unified campaign driver.

   Every fault-simulation engine is "run a universe of faults against a
   pattern source and report detection"; what differs is only the inner
   evaluation kernel.  Engines that each re-implement the campaign
   policies — limits, checkpoint write/resume, supervision, obs
   accounting, fault dropping, the all-detected early exit — drift
   apart, so this module implements each policy exactly once, in
   {!run_patterns}: it drives a {!Kernel.t} (the one injection kernel
   behind serial and PPSFP, at any domain count, or a test oracle) one
   pattern unit at a time.

   Limits precedence is fixed by [Limits.check]'s polling order
   (interrupt > deadline > max_evals); every engine polls the same gauge
   at the same unit boundaries, so all resolve simultaneous limits
   identically. *)

type summary = {
  n_sites : int;
  n_patterns : int;
  first_detection : int option array;  (* per site: index of first detecting pattern *)
  outcome : Outcome.t;       (* did the campaign finish, and if not, why *)
  patterns_done : int;       (* patterns completed for every live site *)
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
   pattern unit — identical across every engine with the same unit
   length on the same campaign; "evals_saved" counts the site x unit evaluations
   skipped by fault dropping or the all-detected early exit.  Gate-level
   work (where event-driven propagation shows up) is reported separately as
   "gate_evals". *)

let start_time obs = if Obs.enabled obs then Obs.now () else 0.0

let emit_run obs ~engine ~n_sites ~n_patterns ~outcome ~patterns_done ~sites_done ~t0 fields =
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

(* --- Checkpoint plumbing ------------------------------------------------------ *)

(* Preload a resume state: trusted detections are blitted in and the
   scan continues after the last fully-completed pattern. *)
let preload checkpoint (first : int option array) =
  match Option.bind checkpoint Checkpoint.resume_state with
  | None -> 0
  | Some st ->
      Array.blit st.Checkpoint.first_detection 0 first 0 (Array.length first);
      st.Checkpoint.units_done

let tick checkpoint ~obs ~engine ~units_done ~first =
  match checkpoint with
  | None -> ()
  | Some ctl ->
      if Checkpoint.tick ctl ~units_done ~first_detection:first then
        emit_checkpoint obs ~engine ctl ~units_done

let finalize checkpoint ~obs ~engine ~units_done ~first =
  match checkpoint with
  | None -> ()
  | Some ctl ->
      Checkpoint.finalize ctl ~units_done ~first_detection:first;
      emit_checkpoint obs ~engine ctl ~units_done

(* --- The driver ---------------------------------------------------------------- *)

let run_patterns ?(drop = true) ?(obs = Obs.disabled) ?deadline ?max_evals ?interrupt
    ?checkpoint ?(max_attempts = Parallel_exec.default_max_attempts)
    ?(backoff = Parallel_exec.Backoff.default)
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
  let gauge = Limits.gauge (Limits.make ?deadline ?max_evals ?interrupt ()) in
  let pos = ref (preload checkpoint first) in
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
     pattern and move the site's first detection; an exception
     mid-propagation leaves the evaluating domain's scratch dirty, which
     [restore] repairs before anyone reads it again.  Retries back off
     exponentially with jitter (pass [Backoff.none] for the old
     immediate behavior); the [exec.job] chaos tap sits beside
     [crash_hook], inside the supervised region, so injected faults
     exercise exactly this path.  Helper domains call this too, each for
     sites no other domain holds in the unit: the clean path touches no
     shared state, and the failure path's shared tallies, failure list
     and jitter PRNG sit behind [sup_lock]. *)
  let sup_lock = Mutex.create () in
  (* A failed attempt: book it under the lock, then either give the site
     up ([None]) or sleep the backoff outside the lock and try again. *)
  let rec supervise ~sid ~restore f =
    match
      crash_hook sid;
      Chaos.tap chaos Chaos.Exec_job;
      f ()
    with
    | v -> Some v
    | exception exn -> (
        restore ();
        let retry =
          Mutex.protect sup_lock (fun () ->
              attempts.(sid) <- attempts.(sid) + 1;
              if attempts.(sid) >= max_attempts then begin
                failed.(sid) <- true;
                failures := (sid, Printexc.to_string exn) :: !failures;
                None
              end
              else begin
                incr retries;
                let d =
                  Parallel_exec.Backoff.delay backoff backoff_prng ~attempt:attempts.(sid)
                in
                if d > 0.0 then incr backoff_sleeps;
                Some d
              end)
        in
        match retry with
        | None -> None
        | Some d ->
            if d > 0.0 then Unix.sleepf d;
            supervise ~sid ~restore f)
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
    tick checkpoint ~obs ~engine ~units_done:!pos ~first;
    on_progress ~units_done:!pos ~detected:(n - !undetected)
  done;
  let live = n - Array.fold_left (fun a f -> if f then a + 1 else a) 0 failed in
  if !pos < total && not !stopping then
    saved := !saved + (live * kernel.Kernel.units_remaining ~start:!pos);
  finalize checkpoint ~obs ~engine ~units_done:!pos ~first;
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

module Obs = Dynmos_obs.Obs
module Chaos = Dynmos_chaos.Chaos

(* The unified campaign driver.

   Every fault-simulation engine is "run a universe of faults against a
   pattern source and report detection"; what differs is only the inner
   evaluation kernel.  Engines that each re-implement the campaign
   policies — limits, checkpoint write/resume, supervision, counters,
   fault dropping, the all-detected early exit — drift
   apart, so this module implements each policy exactly once, in
   {!run_patterns}: it drives a {!Kernel.t} (the one injection kernel
   behind serial and PPSFP, at any domain count, or a test oracle) one
   pattern unit at a time.

   The sweeping domain checks the limits after every unit, in a fixed
   order (interrupt > deadline > max_evals), so every engine resolves
   simultaneous limits identically. *)

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

(* --- Counters and observability ----------------------------------------------- *)

(* The driver tallies plain ints (an int add is noise next to a netlist
   evaluation) into one [counts] record per run, which it hands to
   [on_counts] and, when the recorder is enabled, to one "faultsim.run"
   event; a disabled recorder costs the [Obs.enabled] branch and never
   reads the clock.  "evals" counts kernel evaluations under one
   driver-level definition — one per live site per pattern unit —
   identical across every engine with the same unit length on the same
   campaign; "evals_saved" counts the site x unit evaluations skipped by
   fault dropping or the all-detected early exit.  Gate-level work
   (where event-driven propagation shows up) is "gate_evals". *)

type counts = {
  evals : int;
  evals_saved : int;
  retries : int;
  chaos_injected : int;
  good_evals : int;
  gate_evals : int;
  gate_evals_saved : int;
  requested_domains : int;
  effective_domains : int;
}

let count_fields c =
  [
    ("evals", Obs.Int c.evals);
    ("evals_saved", Obs.Int c.evals_saved);
    ("retries", Obs.Int c.retries);
    ("chaos_injected", Obs.Int c.chaos_injected);
    ("good_evals", Obs.Int c.good_evals);
    ("gate_evals", Obs.Int c.gate_evals);
    ("gate_evals_saved", Obs.Int c.gate_evals_saved);
    ("requested_domains", Obs.Int c.requested_domains);
    ("effective_domains", Obs.Int c.effective_domains);
  ]

let run_fields ~engine ~dt_s s c =
  ("engine", Obs.String engine)
  :: ("sites", Obs.Int s.n_sites)
  :: ("patterns", Obs.Int s.n_patterns)
  :: ("outcome", Obs.String (Outcome.to_string s.outcome))
  :: ("patterns_done", Obs.Int s.patterns_done)
  :: ("sites_done", Obs.Int s.sites_done)
  :: ("dt_s", Obs.Float dt_s)
  :: count_fields c

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

(* Evaluation attempts per site before it is declared failed. *)
let max_attempts = 3

let run_patterns ?(drop = true) ?(obs = Obs.disabled) ?deadline ?max_evals ?interrupt
    ?checkpoint ?(on_counts = fun (_ : counts) -> ()) ?(chaos = Chaos.disabled)
    ?(crash_hook = fun (_ : int) -> ())
    ?(on_progress = fun ~units_done:(_ : int) ~detected:(_ : int) -> ()) ~n_sites:n ~total
    (kernel : Kernel.t) =
  let t0 = if Obs.enabled obs then Obs.now () else 0.0 in
  let engine = kernel.Kernel.name in
  let unit_bits = kernel.Kernel.unit_bits in
  let first = Array.make n None in
  let failed = Array.make n false in
  let attempts = Array.make n 0 in
  let failures = ref [] in
  let evals = ref 0 and saved = ref 0 and units = ref 0 in
  let work = ref 0 in
  let retries = ref 0 in
  (match max_evals with
  | Some m when m < 1 ->
      invalid_arg (Printf.sprintf "Campaign.run_patterns: max_evals must be >= 1 (got %d)" m)
  | _ -> ());
  (* The first limit found tripped after a unit stops the sweep: a
     campaign may overshoot a limit by at most one unit.  [work] counts
     the run's gate evaluations, the budget's unit. *)
  let stop_cause () =
    if (match interrupt with Some f -> f () | None -> false) then Some Outcome.Interrupted
    else if (match deadline with Some d -> Unix.gettimeofday () >= d | None -> false) then
      Some Outcome.Deadline
    else if (match max_evals with Some m -> !work >= m | None -> false) then
      Some Outcome.Max_evals
    else None
  in
  let pos = ref (preload checkpoint first) in
  let undetected = ref (n - detected_count first) in
  let detect ~sid ~pat =
    if first.(sid) = None then begin
      first.(sid) <- Some pat;
      decr undetected
    end
  in
  (* Bounded retry at this very unit, so a transient crash cannot skip a
     pattern and move the site's first detection; an exception
     mid-propagation leaves the evaluating domain's scratch dirty, which
     [restore] repairs before anyone reads it again.  The retry is
     immediate: what can raise here (an evaluation on private scratch,
     the crash hook, a seeded chaos draw) gains nothing by waiting.  The
     [exec.job] chaos tap sits beside [crash_hook], inside the
     supervised region, so injected faults exercise exactly this path.
     Helper domains call this too, each for sites no other domain holds
     in the unit: the clean path touches no shared state, and the
     failure path's shared tallies and failure list sit behind
     [sup_lock]. *)
  let sup_lock = Mutex.create () in
  let rec supervise ~sid ~restore f =
    match
      crash_hook sid;
      Chaos.tap chaos Chaos.Exec_job;
      f ()
    with
    | v -> Some v
    | exception exn ->
        restore ();
        let retry =
          Mutex.protect sup_lock (fun () ->
              attempts.(sid) <- attempts.(sid) + 1;
              if attempts.(sid) >= max_attempts then begin
                failed.(sid) <- true;
                failures := (sid, Printexc.to_string exn) :: !failures;
                false
              end
              else begin
                incr retries;
                true
              end)
        in
        if retry then supervise ~sid ~restore f else None
  in
  let ctx = { Kernel.drop; first; failed; work; detect; supervise } in
  let stopped = ref None in
  (* Early exit: once every site is detected (and dropping is on), the
     remaining patterns can neither detect anything new nor simulate
     anything — skip them entirely. *)
  while !pos < total && (not (drop && !undetected = 0)) && !stopped = None do
    let len = min unit_bits (total - !pos) in
    (* Unified accounting, decided before the kernel runs: one kernel
       evaluation per live site per unit; a dropped site's unit is
       saved; a failed site is out of both counts. *)
    for sid = 0 to n - 1 do
      if failed.(sid) then ()
      else if drop && first.(sid) <> None then incr saved
      else incr evals
    done;
    kernel.Kernel.run_unit ctx ~start:!pos ~len;
    incr units;
    pos := !pos + len;
    stopped := stop_cause ();
    tick checkpoint ~obs ~engine ~units_done:!pos ~first;
    on_progress ~units_done:!pos ~detected:(n - !undetected)
  done;
  let live = n - Array.fold_left (fun a f -> if f then a + 1 else a) 0 failed in
  if !pos < total && !stopped = None then
    saved := !saved + (live * ((total - !pos + unit_bits - 1) / unit_bits));
  finalize checkpoint ~obs ~engine ~units_done:!pos ~first;
  let failed_sites = List.sort compare !failures in
  let outcome = Outcome.make ?stopped:!stopped ~failed_sites () in
  (* A stopped pattern sweep has resolved exactly the detected sites (a
     detection is final once found; undetected sites still had patterns
     to see); a finished sweep has resolved everything but the failed
     sites. *)
  let sites_done =
    if !stopped <> None then detected_count first else n - List.length failed_sites
  in
  let summary =
    { n_sites = n; n_patterns = total; first_detection = first; outcome; patterns_done = !pos;
      sites_done }
  in
  let counts =
    {
      evals = !evals;
      evals_saved = !saved;
      retries = !retries;
      chaos_injected = Chaos.injected chaos;
      good_evals = !units;
      gate_evals = !work;
      gate_evals_saved = ((!evals + !saved) * kernel.Kernel.gates) - !work;
      requested_domains = kernel.Kernel.requested_domains;
      effective_domains = kernel.Kernel.effective_domains;
    }
  in
  emit_site_failed obs ~engine failed_sites;
  if Obs.enabled obs then
    Obs.emit obs ~ev:"faultsim.run" (run_fields ~engine ~dt_s:(Obs.now () -. t0) summary counts);
  on_counts counts;
  summary

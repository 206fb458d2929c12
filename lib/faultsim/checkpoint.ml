(* Campaign checkpoints: serialize fault-simulation progress to a
   versioned file so an interrupted run (crash, SIGINT, deadline) can be
   resumed bit-identically instead of being thrown away.

   Design constraints:
   - *atomic* and *self-validating*: a checkpoint is a [Durable] record,
     published by tmp + fsync + [.bak] rotation + rename under the
     [ckpt.write] / [ckpt.fsync] / [ckpt.rename] chaos points, and its
     checksum trailer is verified before any field is read;
   - *digest-pinned*: the circuit, fault-universe and pattern digests of
     the producing campaign are stored, and resume refuses to continue
     against different ones — silently mixing campaigns would produce
     confidently wrong coverage;
   - *engine-neutral*: every engine sweeps patterns in ascending units
     and checkpoints "patterns 0..K done for every site", so any engine
     resumes any engine's file.  Files from older builds whose domains
     engine swept sites ([mode sites]) are refused by name. *)

module Chaos = Dynmos_chaos.Chaos
module Durable = Dynmos_durable.Durable

exception Error = Durable.Error

type mode = Patterns

let mode_name Patterns = "patterns"

type state = {
  mode : mode;
  circuit_digest : string;
  universe_digest : string;
  pattern_digest : string;
  n_sites : int;
  n_patterns : int;
  units_done : int;
  first_detection : int option array;
  site_done : bool array option;
  prng_state : string option;
}

let fail = Durable.fail
let header = "dynmos-checkpoint v1"

(* --- Serialization ---------------------------------------------------------- *)

let save ?chaos path st =
  Durable.publish ?chaos ~write:Chaos.Ckpt_write ~fsync:Chaos.Ckpt_fsync ~rename:Chaos.Ckpt_rename
    ~backup:true ~what:"checkpoint" path
    (Durable.encode ~header
       ([
          ("mode", mode_name st.mode);
          ("circuit", st.circuit_digest);
          ("universe", st.universe_digest);
          ("patterns", st.pattern_digest);
          ("n_sites", string_of_int st.n_sites);
          ("n_patterns", string_of_int st.n_patterns);
          ("units_done", string_of_int st.units_done);
        ]
       @ Option.to_list (Option.map (fun s -> ("prng", s)) st.prng_state)
       @ [ ("first", Durable.first_to_string st.first_detection) ]))

let load path =
  let r = Durable.load ~what:"checkpoint" ~header path in
  (match Durable.field r "mode" with
  | "patterns" -> ()
  | "sites" ->
      fail
        "checkpoint %s: mode sites was written by the site-sweep domains engine of an \
         older build and cannot be resumed; rerun the campaign"
        path
  | m -> fail "checkpoint %s: unknown mode %S" path m);
  let n_sites = Durable.int_field r "n_sites" in
  let n_patterns = Durable.int_field r "n_patterns" in
  (* Every writer keeps detections < units_done <= n_patterns: a
     detection at or past units_done would override the resumed run's
     own earlier one. *)
  let units_done = Durable.int_field ~max:n_patterns r "units_done" in
  {
    mode = Patterns;
    circuit_digest = Durable.field r "circuit";
    universe_digest = Durable.field r "universe";
    pattern_digest = Durable.field r "patterns";
    n_sites;
    n_patterns;
    units_done;
    first_detection = Durable.first_field r ~n:n_sites ~before:units_done;
    site_done = None;
    prng_state = Durable.field_opt r "prng";
  }

let load_or_backup path =
  (* Reject-then-fallback: a corrupt (or mid-rotation missing) primary
     does not kill the resume when the previous snapshot is still valid.
     The primary's own error is preserved when both fail — it names the
     file the user asked about. *)
  match load path with
  | st -> (st, false)
  | exception Error primary_err -> (
      match load (path ^ ".bak") with
      | st -> (st, true)
      | exception Error _ -> raise (Error primary_err))

(* Called when a campaign starts or resumes; by construction no live
   writer for [path] exists then, so every tmp sibling is garbage. *)
let cleanup_stale path = Durable.sweep_stale path

(* --- Controllers ------------------------------------------------------------- *)

(* The mutable handle threaded into the engines.  [tick] throttles writes
   to every [interval] completed patterns; [finalize] always writes.
   Only the campaign driver's sweeping domain calls either. *)
type ctl = {
  path : string;
  interval : int;
  circuit_digest : string;
  universe_digest : string;
  pattern_digest : string;
  n_sites : int;
  n_patterns : int;
  prng_state : string option;
  resume : state option;
  resumed_from_backup : bool;
  chaos : Chaos.t;
  mutable last_units : int;
  mutable writes : int;
  mutable failed_writes : int;
  stale_cleaned : int;
}

let create ~path ~interval ?prng_state ?resume ?(resumed_from_backup = false)
    ?(chaos = Chaos.disabled) ~circuit_digest ~universe_digest ~pattern_digest ~n_sites
    ~n_patterns () =
  if interval < 1 then fail "checkpoint: interval must be >= 1 (got %d)" interval;
  let stale_cleaned = cleanup_stale path in
  (match (resume : state option) with
  | Some st ->
      if st.n_sites <> n_sites then
        fail "checkpoint %s: has %d sites, campaign has %d" path st.n_sites n_sites;
      if st.n_patterns <> n_patterns then
        fail "checkpoint %s: campaign length %d patterns, this run has %d" path st.n_patterns
          n_patterns;
      let pin what saved fresh =
        if not (String.equal saved fresh) then
          fail
            "checkpoint %s: %s digest mismatch (%s vs %s) — refusing to resume against a \
             different %s"
            path what saved fresh what
      in
      pin "circuit" st.circuit_digest circuit_digest;
      pin "universe" st.universe_digest universe_digest;
      pin "pattern" st.pattern_digest pattern_digest
  | None -> ());
  {
    path;
    interval;
    circuit_digest;
    universe_digest;
    pattern_digest;
    n_sites;
    n_patterns;
    prng_state;
    resume;
    resumed_from_backup;
    chaos;
    last_units = (match resume with Some st -> st.units_done | None -> 0);
    writes = 0;
    failed_writes = 0;
    stale_cleaned;
  }

let resume_state ctl = ctl.resume
let resumed_from_backup ctl = ctl.resumed_from_backup
let interval ctl = ctl.interval
let path ctl = ctl.path
let writes ctl = ctl.writes
let failed_writes ctl = ctl.failed_writes
let stale_cleaned ctl = ctl.stale_cleaned

let write ctl ~units_done ~first_detection =
  let st =
    {
      mode = Patterns;
      circuit_digest = ctl.circuit_digest;
      universe_digest = ctl.universe_digest;
      pattern_digest = ctl.pattern_digest;
      n_sites = ctl.n_sites;
      n_patterns = ctl.n_patterns;
      units_done;
      first_detection = Array.copy first_detection;
      site_done = None;
      prng_state = ctl.prng_state;
    }
  in
  save ~chaos:ctl.chaos ctl.path st;
  ctl.last_units <- units_done;
  ctl.writes <- ctl.writes + 1

let tick ctl ~units_done ~first_detection =
  units_done - ctl.last_units >= ctl.interval
  &&
  (* A failed interval write must not abort the campaign: the simulation
     result is unaffected and the failure is counted for stats.
     [last_units] moves on as after a write, so the retry waits a full
     interval instead of coming at every later unit. *)
  match write ctl ~units_done ~first_detection with
  | () -> true
  | exception Error _ ->
      ctl.last_units <- units_done;
      ctl.failed_writes <- ctl.failed_writes + 1;
      false

let finalize ctl ~units_done ~first_detection =
  match write ctl ~units_done ~first_detection with
  | () -> ()
  | exception Error _ -> (
      (* One retry clears transient faults (an injected fail_once, a full
         tmpfs racing a cleanup); a persistent failure is absorbed and
         counted — the campaign's in-memory result is intact and the
         previous [.bak] remains resumable. *)
      ctl.failed_writes <- ctl.failed_writes + 1;
      match write ctl ~units_done ~first_detection with
      | () -> ()
      | exception Error _ -> ctl.failed_writes <- ctl.failed_writes + 1)

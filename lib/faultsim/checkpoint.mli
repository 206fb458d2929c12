(** Campaign checkpoints: versioned, atomically-written progress files
    that let an interrupted fault-simulation campaign (crash, Ctrl-C,
    deadline) resume bit-identically instead of starting over.

    A checkpoint pins the campaign it belongs to with digests of the
    circuit, the fault universe and the pattern set; {!create} refuses to
    resume against mismatched digests.  It is a [Dynmos_durable.Durable]
    record ([dynmos-checkpoint v1]) published with a [.bak] rotation.
    Chaos artifacts: [ckpt.write] Fail leaves no file and Torn half a
    tmp; [ckpt.fsync] skips the sync; [ckpt.rename] drops the tmp.

    Every engine sweeps patterns in ascending units, so there is one
    checkpoint mode and any engine resumes any engine's file. *)

exception Error of string
(** [Durable.Error], shared with [Cache_store] and [Journal]: raised on
    unreadable, corrupted, version-incompatible or digest-mismatched
    checkpoint files, with messages that start [checkpoint FILE:].
    Never raised for a merely missing file under [resume] — see
    {!create}. *)

type mode =
  | Patterns
      (** [units_done] patterns are complete for all sites — written on
          disk as [mode patterns].  Older builds also wrote [mode sites]
          from a site-sweep domains engine; {!load} refuses those. *)

val mode_name : mode -> string

type state = {
  mode : mode;
  circuit_digest : string;
  universe_digest : string;
  pattern_digest : string;
  n_sites : int;
  n_patterns : int;
  units_done : int;  (** patterns done *)
  first_detection : int option array;
      (** per-site earliest detecting pattern index, as of the snapshot *)
  site_done : bool array option;
      (** always [None]: kept so existing record literals still build;
          never written *)
  prng_state : string option;
      (** {!Dynmos_util.Prng.save} token of the campaign generator, for
          diagnostics; resume regenerates patterns from the seed and
          validates them via [pattern_digest] *)
}

val save : ?chaos:Dynmos_chaos.Chaos.t -> string -> state -> unit
(** [save path st] atomically publishes [st] at [path], rotating the
    previous file to [path ^ ".bak"].  Raises {!Error} on I/O failure,
    injected ones included. *)

val load : string -> state
(** Parse and validate a checkpoint file.  Raises {!Error} on missing
    file, bad checksum (truncation), unknown version, malformed fields,
    values no writer produces ([units_done] past [n_patterns], a
    detection at or past [units_done]), or a [mode sites] file from an
    older build (its site-sweep progress has no pattern prefix). *)

val load_or_backup : string -> state * bool
(** [load_or_backup path] is [load path], falling back to
    [path ^ ".bak"] when the primary is corrupt or missing (the rotation
    in {!save} leaves a brief no-primary window if the writer dies
    between its two renames).  Returns [(state, used_backup)].  When both
    fail, re-raises the {e primary}'s {!Error}. *)

val cleanup_stale : string -> int
(** [Dynmos_durable.Durable.sweep_stale] for a checkpoint path; call
    only at campaign start/resume ({!create} does this itself). *)

val remove : string -> unit
(** [remove path] deletes the checkpoint at [path] and its [.bak]
    rotation; a file already gone is fine.  For a campaign whose result
    is kept elsewhere, or a file no resume can use. *)

(** {1 Controllers}

    The handle engines thread through a run.  It owns the write
    throttling (every [interval] completed patterns) and the campaign
    digests.  Only the campaign driver's sweeping domain writes through
    it. *)

type ctl

val create :
  path:string ->
  interval:int ->
  ?resume:bool ->
  ?prng_state:string ->
  ?chaos:Dynmos_chaos.Chaos.t ->
  circuit_digest:string ->
  universe_digest:string ->
  pattern_digest:string ->
  n_sites:int ->
  n_patterns:int ->
  unit ->
  ctl
(** Build a controller for this campaign.  When [resume] (default
    [false]) is true and [path] or its [.bak] exists, the saved state is
    loaded with {!load_or_backup}; a missing pair is a fresh start, not
    an error (a campaign killed before its first write left nothing
    behind).  The loaded state's digests and dimensions must match the
    fresh campaign's — {!Error} otherwise (resuming against a different
    circuit, universe or pattern set would silently corrupt coverage
    numbers).  Creation also runs {!cleanup_stale} for [path].  [chaos]
    is threaded into every write this controller performs. *)

val resume_state : ctl -> state option
(** The state {!create} loaded and validated, for
    [Campaign.run_patterns] to preload; [None] on a fresh start. *)

val resumed_from_backup : ctl -> bool
(** Whether the resume state was salvaged from the [.bak] rotation
    rather than the primary file (a durability stat, not a behavior
    change). *)

val tick : ctl -> units_done:int -> first_detection:int option array -> bool
(** Interval-gated write: persists a snapshot iff at least [interval]
    patterns completed since the last write.  Returns whether a file was
    written.  A failed write is absorbed (counted in {!failed_writes})
    and retried a full interval later, not at every later unit —
    checkpointing trouble never aborts the simulation itself. *)

val finalize : ctl -> units_done:int -> first_detection:int option array -> unit
(** Unconditional write — called at clean completion, deadline stop and
    interrupt, so the published file always reflects the returned
    summary.  Retries once on failure, then absorbs it (counted in
    {!failed_writes}); the previous [.bak] stays resumable. *)

val path : ctl -> string

val writes : ctl -> int
(** Number of files written through this controller (tests and the
    checkpoint-overhead bench read this). *)

val failed_writes : ctl -> int
(** Write attempts absorbed by {!tick}/{!finalize} instead of raised. *)

val stale_cleaned : ctl -> int
(** Stale tmp files removed when this controller was created. *)

(** Append-only, fsync'd, CRC-checksummed write-ahead job journal.

    The durability contract of [dynmos serve]: a run request is
    {e admitted} only after its envelope is on disk here, and its
    terminal outcome is recorded the same way, so a [kill -9] at any
    instant loses no admitted job — on the next boot {!open_} replays
    the segment and {!recovered} names every job whose outcome never
    made it to disk, ready to be re-enqueued.

    Format: a versioned header line ([dynmos-journal v1]) followed by
    one record per line, each prefixed with a CRC-32 over its payload.
    Three record kinds: [gen N] (boot generation stamp), [admit JID
    ENVELOPE] (the replay key: a client-independent request envelope),
    [done JID STATUS] (terminal outcome).  A record is durable once its
    full line is on disk; {!open_} truncates a torn tail (a half-written
    record, or anything whose CRC fails) back to the last good record.

    Compaction rewrites the segment keeping only the latest generation
    and the pending admits, published by [Dynmos_durable.Durable]'s
    tmp + fsync + rename; segments are read and stale tmps swept there
    too.  {!append_done} auto-compacts once the segment exceeds the
    rotate limit and at least half its records are completed pairs.

    Chaos artifacts: [journal.append] Fail writes nothing, Torn half a
    record with no newline; [journal.fsync] skips the sync;
    [journal.compact] Fail aborts, Torn leaves a truncated tmp and an
    intact segment.  All appends are serialized under one internal
    mutex — session threads admit and executor domains complete
    concurrently. *)

exception Error of string
(** [Durable.Error], shared with [Checkpoint] and [Cache_store]. *)

type t

type entry = { jid : int; envelope : string }

val open_ : ?chaos:Dynmos_chaos.Chaos.t -> ?rotate_limit:int -> string -> t
(** Open (or create) the journal at the given path: sweep stale
    compaction tmps, scan the segment, truncate any torn tail, and stamp
    a new boot generation.  [rotate_limit] (default 1024, min 2) bounds
    the segment's record count before auto-compaction.  Raises {!Error}
    on an unreadable file or a foreign header.  A record whose jid or
    generation is negative or [max_int] counts as torn. *)

val recovered : t -> entry list
(** The admitted-but-unfinished jobs found at {!open_} (plus any
    admitted since), in admission (jid) order — the replay work list. *)

val append_admit : t -> envelope:string -> int
(** Log an admitted request; returns its journal id.  The envelope must
    be a single line (the server uses the canonical run-request JSON).
    Fsync'd before returning; raises {!Error} if the record could not be
    made durable — the caller must then reject the request, because an
    unjournaled job would not survive a crash. *)

val append_done : t -> jid:int -> status:string -> unit
(** Log a terminal outcome ([ok], [partial], [error], [dropped]).  May
    auto-compact.  Raises {!Error} when the record cannot be written —
    safe to absorb: a lost done record only costs a redundant (and
    idempotent, content-addressed) replay at the next boot. *)

val compact : t -> unit
(** Force a segment compaction (the SIGHUP maintenance hook). *)

val close : t -> unit
(** Close the segment channel.  Further appends raise {!Error}. *)

val generation : t -> int
(** This boot's generation: 1 on a fresh journal, previous + 1 after
    every recovery (the [restart_generation] stats counter). *)

val pending_count : t -> int
val appends : t -> int
val fsyncs : t -> int
val compactions : t -> int

val truncated_tail : t -> int
(** 1 when this open found and truncated a torn tail, else 0. *)

val stale_cleaned : t -> int
(** Stale compaction tmp files swept at open. *)

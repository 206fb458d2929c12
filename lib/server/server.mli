open Dynmos_obs

(** [dynmos serve] — a long-lived, crash-isolated, concurrent batch
    front end over the fault-simulation engines.

    One JSONL request per input line, exactly one terminal JSONL
    response per request line (see {!Protocol}).  The loop is built not
    to die, and to serve many clients at once:

    - {e validation}: malformed JSON, schema violations, unknown
      circuits, out-of-range ids and failing circuit lookups yield
      [{"status":"error", ...}] responses, never an exception escaping
      the loop or killing an executor;
    - {e isolation}: jobs run on the supervised engines with a
      per-request wall-clock deadline and gate-eval budget (capped by
      the server {!config}), so one hung or crashing request is reported
      [partial]/[error] while the server keeps serving;
    - {e concurrency}: every session — stdin, each socket connection, or
      a {!serve} call — runs one read-and-admit loop on its own thread;
      admitted jobs multiplex onto one long-lived pool of
      [executors] worker domains which drains clients round-robin —
      FIFO per client, and one client's backlog cannot starve another's
      next request.  Workers park on a condition variable when idle (no
      sleep-polling anywhere in the serve path);
    - {e result cache}: completed runs are stored in a content-addressed
      LRU cache keyed by the checkpoint digests (circuit x universe x
      patterns) plus engine/drop; a repeat request is answered
      bit-identically with zero new gate evaluations and no charge to
      the global budget.  The circuit and universe digests are computed
      once per circuit, with its universe; a request hashes only its
      patterns (and a [gates] request its restricted sites).  Content
      addressing makes invalidation moot — any input change changes the
      key — so the LRU bound exists only to reclaim space, in memory and
      in the [data_dir] copy;
    - {e admission control}: run requests pass through a bounded pending
      queue; once full, new work is rejected immediately with
      [{"status":"overloaded"}] — backpressure instead of unbounded
      memory.  An optional global gate-eval budget rejects work once
      exhausted;
    - {e cancellation}: a client that disconnects mid-service has its
      queued jobs dropped and its running jobs interrupted at the next
      work unit; other clients never notice;
    - {e graceful drain}: {!request_drain} (the CLI's first
      SIGTERM/SIGINT, forwarded from a sigwait thread) stops admission
      ([{"status":"draining"}] for lines still read), lets queued and
      in-flight jobs finish under their per-request limits, wakes every
      blocked reader/acceptor, and {!serve} returns [`Drained]. *)

type config = {
  queue_capacity : int;        (** pending run requests (all clients) before
                                   [overloaded] (default 64) *)
  executors : int;             (** worker domains in the shared pool (default 2) *)
  max_patterns : int;          (** per-request pattern-count cap (default 1_000_000) *)
  max_seconds : float;         (** per-request wall-clock cap and default deadline
                                   (default 60.) — also bounds drain time *)
  max_request_evals : int option;  (** per-request gate-eval cap and default budget *)
  global_max_evals : int option;   (** whole-server gate-eval budget; once spent,
                                       run requests are rejected *)
  max_line_bytes : int;        (** request lines longer than this are rejected
                                   (default 1 MiB); the line reader also buffers
                                   at most this many bytes plus one of any line *)
  events_capacity : int;       (** ring size of the bounded in-memory obs sink
                                   backing the [stats] op (default 1024) *)
  cache_capacity : int;        (** result-cache entries before LRU eviction
                                   (default 256; 0 disables caching); with
                                   [data_dir], an evicted entry's file goes too *)
  idle_timeout_s : float option;  (** socket connections silent this long with no
                                      work in flight are reaped — dead peers free
                                      their session thread (default [None] = never) *)
  chaos : Dynmos_chaos.Chaos.t;   (** deterministic fault injection: arms the
                                      [serve.write]/[serve.read]/[cache.insert]
                                      points here, [sched.spawn]/[sched.task] in
                                      the executor pool, and — with [data_dir] —
                                      [journal.*]/[cache.persist]/[ckpt.*] in the
                                      durability layer (default disabled) *)
  data_dir : string option;    (** durable state root (default [None] = volatile):
                                   [journal] (write-ahead job journal), [cache/]
                                   (persistent result cache), [ckpt/] (per-job
                                   checkpoints).  Admission becomes log-before-
                                   work, and {!create} recovers whatever the
                                   previous process — even one killed with
                                   [kill -9] — left behind *)
  ckpt_patterns : int;         (** with [data_dir]: jobs of at least this many
                                   patterns write resumable checkpoints
                                   (default 4096) *)
  ckpt_interval : int;         (** checkpoint write throttle, in completed work
                                   units (default 1000) *)
}

val default_config : config

type t
(** Server state shared across connections: config, counters, the
    executor pool, the result cache, the compiled-universe cache and the
    obs recorder (a {!Obs.bounded_memory_sink} of [events_capacity]
    events, teed with the optional trace sink). *)

val create :
  ?config:config ->
  ?trace:Obs.sink ->
  ?known_circuit:(string -> bool) ->
  ?find_circuit:(string -> (Dynmos_netlist.Netlist.t, string) result) ->
  unit ->
  t
(** Spawns the executor pool ([config.executors] domains) — pair with
    {!shutdown}.  [known_circuit] (default {!Dynmos_circuits.Catalog.mem})
    vets names at admission; [find_circuit] (default
    {!Dynmos_circuits.Catalog.find}) resolves them at execution — an
    [Error] there becomes a structured error response, not a dead
    executor.  The split is injectable so tests can drive the
    lookup-failure path.  Raises [Invalid_argument] on a nonsensical
    config (non-positive capacities, limits or line bound).

    With [config.data_dir] set, boot also runs crash recovery, in
    order: the journal is opened (torn tail truncated, boot generation
    stamped), the persistent result cache is rehydrated (corrupt
    entries quarantined, files past [cache_capacity] deleted), and every journaled-but-unfinished job is
    re-enqueued on a background thread, replayed through the ordinary
    execution path — resuming from its checkpoint when one was written
    — and closed out in the journal; its result lands in the cache, so
    the client's retry is answered bit-identically with
    [cached:true, recovered:true].  Raises {!Journal.Error} when the
    journal file exists but is not one of ours. *)

val wait_recovery : t -> unit
(** Block until boot recovery has replayed (or abandoned, on drain)
    every journaled job.  No-op without [data_dir] or with an empty
    journal. *)

val maintenance : t -> unit
(** The CLI's SIGHUP hook: force a journal compaction, retry persisting
    any cache entry whose disk write failed, and emit a
    [serve.maintenance] durability snapshot — without interrupting
    admission or live connections.  No-op without [data_dir]. *)

val shutdown : t -> unit
(** Stop and join the executor pool once all queued work has been
    claimed, and close the pipe that wakes line readers on drain.
    Idempotent.  Call after the last {!serve} returns; domains
    are a bounded resource (OCaml caps them around 128). *)

val request_drain : t -> unit
(** Begin a graceful drain: stop admitting runs, wake every line reader
    parked on stdin or a socket and the acceptors (registered drain
    hooks close listening sockets and half-close live connections), let
    in-flight work finish.  First call
    wins; safe from any ordinary thread, {e not} from a signal handler
    (it takes locks) — convert signals with [Thread.wait_signal] first,
    as the CLI does. *)

val obs : t -> Obs.t
(** The server's recorder — serve-loop lifecycle events
    ([serve.accept], [serve.reject], [serve.request], and [serve.drain]
    at the end of every session) and every engine's [faultsim.run]
    events flow through it. *)

val stats_line : t -> (string * Json.t) list
(** The fields of a [stats] response: uptime, per-status counters,
    queue/executor/cache/budget state, obs-ring occupancy, the
    recovery counters ([exec_respawns], [exec_spawn_failures],
    [executors_live], [idle_reaps], [chaos_injected]) and the
    durability counters ([journal_appends], [journal_fsyncs],
    [journal_recovered], [journal_pending], [journal_truncated_tail],
    [journal_compactions], [cache_persisted], [cache_persist_failed],
    [cache_corrupt_quarantined], [cache_stale_removed], [cache_loaded],
    [restart_generation] — all zero without [data_dir]).  Exposed for
    the CLI and tests. *)

val exec_wakeups : t -> int
(** Times an executor woke from its idle wait — parked workers cost
    zero wakeups, so this stays O(jobs), not O(idle time / poll
    interval).  Exposed so tests can pin down that the old sleep-poll
    loops are gone. *)

type stop = [ `Eof | `Drained ]

val serve :
  t ->
  ?drain:(unit -> bool) ->
  input:(unit -> string option) ->
  output:(string -> unit) ->
  unit ->
  stop
(** One client session, over the same loop as stdin and every socket
    connection: serve until [input] returns [None] ([`Eof]) or the
    server drains ([`Drained], via [drain] polled between lines or
    {!request_drain}, observed at the next line boundary); both paths
    answer all admitted work before returning.  Safe to call
    concurrently against one [t] — each call is its own client with
    FIFO response ordering.  [input] yields one line (no newline) per
    call, on the calling thread; [output] receives one complete response
    line (no newline) per call, possibly from any executor domain,
    serialized per client by the server.  Never raises on request
    content; an [output] failure marks the client gone — queued jobs are
    cancelled, running ones interrupted — and the call returns after
    in-flight work unwinds. *)

val serve_channels : t -> ?drain:(unit -> bool) -> in_channel -> out_channel -> stop
(** {!serve} over channels: one flushed line per response.  Requests are
    read from [ic]'s file descriptor by the server's line reader (bytes
    already buffered in [ic] are not seen), which holds at most
    [max_line_bytes + 1] bytes of a line: the rest of an over-long line
    is discarded and the line answered with its length error.  EOF and
    read errors end the loop as [`Eof]; {!request_drain} wakes the
    reader, so a drain returns once admitted work is answered even while
    [ic] stays open.  Chaos point [serve.read] applies per read. *)

val serve_socket : t -> ?drain:(unit -> bool) -> string -> unit
(** Listen on a Unix-domain socket at the given path (an existing
    {e socket} file is replaced; any other file kind is refused) and
    serve connections {e concurrently} — one session thread per live
    connection, reading through the same bounded line reader as
    {!serve_channels} and reaped after [idle_timeout_s] of silence with
    no work in flight, all multiplexed onto the shared executor pool —
    until {!request_drain} (or [drain], polled between accepts).  A
    connection dying mid-response only cancels that client's work.  On
    drain the accept loop is woken, live connections are half-closed,
    every admitted job is answered, the call waits until each
    connection's session has ended and closed its fd, and the socket
    file is unlinked. *)

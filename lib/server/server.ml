open Dynmos_netlist
open Dynmos_sim
open Dynmos_faultsim
open Dynmos_circuits
module Obs = Dynmos_obs.Obs
module Scheduler = Parallel_exec.Scheduler
module Chaos = Dynmos_chaos.Chaos

(* The concurrent serve loop.  Any number of clients at once: each
   session (stdin, one socket connection, or a [serve] call) runs one
   loop on its own thread that reads and validates lines and submits
   admitted jobs to one long-lived supervised domain pool shared by the
   whole server ([Parallel_exec.Scheduler]); the pool drains clients
   round-robin so one client's backlog never starves another's next
   request.  Per-client responses funnel through a per-client writer
   mutex so lines never interleave on a connection.

   Idle costs nothing: workers park on the scheduler's condition
   variable, line readers and the socket accept loop block in [select]
   on their fd and the server's wake pipe, and the drain path wakes them
   explicitly
   ([request_drain] runs from ordinary thread context — the CLI converts
   signals with a dedicated sigwait thread — so it may take locks and
   broadcast, which is what replaced the old 2 ms sleep-poll).

   In front of the pool sits a content-addressed result cache: a
   completed run is stored under the digests that already pin
   checkpoints (circuit x universe x patterns) plus the engine/drop
   knobs, so a repeat request is answered without simulating a single
   gate.  Content addressing means there is nothing to invalidate — a
   key changes whenever any input it covers changes; the LRU bound only
   reclaims space, in memory and in the data dir. *)

type config = {
  queue_capacity : int;
  executors : int;
  max_patterns : int;
  max_seconds : float;
  max_request_evals : int option;
  global_max_evals : int option;
  max_line_bytes : int;
  cache_capacity : int;
  idle_timeout_s : float option;
  chaos : Chaos.t;
  data_dir : string option;
  ckpt_patterns : int;
  ckpt_interval : int;
}

let default_config =
  {
    queue_capacity = 64;
    executors = 2;
    max_patterns = 1_000_000;
    max_seconds = 60.0;
    max_request_evals = None;
    global_max_evals = None;
    max_line_bytes = 1_048_576;
    cache_capacity = 256;
    idle_timeout_s = None;
    chaos = Chaos.disabled;
    data_dir = None;
    ckpt_patterns = 4096;
    ckpt_interval = 1000;
  }

exception Reject of string

(* --- Counters ----------------------------------------------------------------- *)

type counters = {
  lines : int Atomic.t;
  accepted : int Atomic.t;
  completed_ok : int Atomic.t;
  completed_partial : int Atomic.t;
  failed : int Atomic.t;            (* jobs answered with status "error" *)
  rejected_invalid : int Atomic.t;
  rejected_overload : int Atomic.t;
  rejected_draining : int Atomic.t;
  rejected_budget : int Atomic.t;
  cancelled : int Atomic.t;         (* jobs dropped or skipped for a gone client *)
  connections : int Atomic.t;       (* socket connections accepted *)
  idle_reaps : int Atomic.t;        (* silent connections reaped by the idle timeout *)
}

let make_counters () =
  {
    lines = Atomic.make 0;
    accepted = Atomic.make 0;
    completed_ok = Atomic.make 0;
    completed_partial = Atomic.make 0;
    failed = Atomic.make 0;
    rejected_invalid = Atomic.make 0;
    rejected_overload = Atomic.make 0;
    rejected_draining = Atomic.make 0;
    rejected_budget = Atomic.make 0;
    cancelled = Atomic.make 0;
    connections = Atomic.make 0;
    idle_reaps = Atomic.make 0;
  }

(* --- Content-addressed result cache ------------------------------------------- *)

(* Keys are compositions of the checkpoint digests (circuit topology,
   fault universe — which covers any [gates] restriction — and the exact
   pattern set) with the engine/drop knobs that shape the reported
   accounting.  Only [Complete] outcomes are stored: a partial result
   depends on the request's own limits, a crash-injected one on the test
   hook.  Entries are immutable after insertion ([summary] is never
   mutated post-run); the mutex covers table and LRU-stamp state. *)
module Cache = struct
  type entry = {
    summary : Faultsim.summary;
    dt_s : float;    (* wall clock of the run that produced the entry *)
    evals : int;     (* gate evaluations that run performed *)
    n_sites : int;
    recovered : bool;        (* produced by restart recovery (disk load or replay) *)
    mutable persisted : bool;  (* has an on-disk twin in data-dir/cache *)
    mutable stamp : int;  (* LRU clock at last touch *)
  }

  type t = {
    m : Mutex.t;
    tbl : (string, entry) Hashtbl.t;
    cap : int;  (* 0 = caching disabled *)
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create cap =
    {
      m = Mutex.create ();
      tbl = Hashtbl.create 32;
      cap;
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let find c key =
    if c.cap = 0 then None
    else begin
      Mutex.lock c.m;
      let r =
        match Hashtbl.find_opt c.tbl key with
        | Some e ->
            c.clock <- c.clock + 1;
            e.stamp <- c.clock;
            c.hits <- c.hits + 1;
            Some e
        | None ->
            c.misses <- c.misses + 1;
            None
      in
      Mutex.unlock c.m;
      r
    end

  (* Returns the key evicted to make room, if any, so the caller can
     delete its disk copy. *)
  let add c key entry =
    if c.cap = 0 then None
    else begin
      Mutex.lock c.m;
      let evicted = ref None in
      (* two identical in-flight requests can both miss and both store;
         first insert wins, the duplicate is dropped *)
      if not (Hashtbl.mem c.tbl key) then begin
        if Hashtbl.length c.tbl >= c.cap then begin
          let victim =
            Hashtbl.fold
              (fun k e acc ->
                match acc with
                | Some (_, s) when s <= e.stamp -> acc
                | _ -> Some (k, e.stamp))
              c.tbl None
          in
          match victim with
          | Some (k, _) ->
              Hashtbl.remove c.tbl k;
              c.evictions <- c.evictions + 1;
              evicted := Some k
          | None -> ()
        end;
        c.clock <- c.clock + 1;
        entry.stamp <- c.clock;
        Hashtbl.add c.tbl key entry
      end;
      Mutex.unlock c.m;
      !evicted
    end

  let stats c =
    Mutex.lock c.m;
    let r = (c.hits, c.misses, Hashtbl.length c.tbl, c.evictions) in
    Mutex.unlock c.m;
    r

  (* Every resident (key, entry) pair in key order — the maintenance
     hook walks this to re-persist entries whose disk write failed. *)
  let snapshot c =
    Mutex.lock c.m;
    let r = Hashtbl.fold (fun k e acc -> (k, e) :: acc) c.tbl [] in
    Mutex.unlock c.m;
    List.sort (fun (a, _) (b, _) -> compare a b) r
end

(* --- Clients -------------------------------------------------------------------- *)

(* One record per session.  [inflight] counts admitted jobs not yet
   finished (their scheduler tasks still pending or running); [wake] is
   broadcast whenever it drops: a job finished, a submit was refused, or
   the client was found dead and its queued jobs dropped. *)
type client = {
  cid : int;
  output : string -> unit;
  out_m : Mutex.t;
  wake_m : Mutex.t;
  wake : Condition.t;
  mutable inflight : int;
  cancelled : bool Atomic.t;
}

(* Everything the [--data-dir] option switches on: the write-ahead
   journal, the cache's disk backing and the per-job checkpoint
   directory.  [dur_m] guards the mutable persistence counters (written
   from executor domains and the maintenance hook concurrently). *)
type durable = {
  journal : Journal.t;
  cache_dir : string;
  ckpt_dir : string;
  cache_loaded : int;            (* healthy entries rehydrated at boot *)
  cache_corrupt : int;           (* entries quarantined at boot *)
  cache_stale_removed : int;     (* entries of an older key shape deleted at boot *)
  dur_m : Mutex.t;
  mutable cache_persisted : int;
  mutable cache_persist_failed : int;
  mutable recovered_jobs : int;  (* journaled jobs replayed to a terminal outcome *)
}

(* A circuit's fault universe and the two structural digests of its
   result-cache key.  None of them can change while the server runs, so
   each is computed once per circuit instead of on every request. *)
type prepared = {
  universe : Faultsim.universe;
  circuit_digest : string;
  universe_digest : string;
}

type t = {
  config : config;
  counters : counters;
  obs : Obs.t;                  (* the [--trace] sink, or [Obs.disabled] *)
  known_circuit : string -> bool;
  find_circuit : string -> (Netlist.t, string) result;
  universes : (string, prepared) Hashtbl.t;
  universes_m : Mutex.t;
  rcache : Cache.t;
  sched : Scheduler.t;
  global_evals : int Atomic.t;  (* gate evaluations spent across all requests *)
  draining : bool Atomic.t;
  next_cid : int Atomic.t;
  drain_m : Mutex.t;            (* guards [closed] *)
  wake_r : Unix.file_descr;     (* readable once draining: frees parked readers and accept *)
  wake_w : Unix.file_descr;
  mutable closed : bool;        (* [shutdown] has closed the wake pipe *)
  durable : durable option;
  mutable recovery : Thread.t option;  (* the boot-time replay worker *)
  t0 : float;
}

(* [create] lives below [run_job]: boot-time recovery replays journaled
   jobs through the ordinary execution path, so construction needs the
   job runner in scope. *)

let shutdown t =
  Scheduler.shutdown t.sched;
  (match t.durable with None -> () | Some d -> Journal.close d.journal);
  Mutex.lock t.drain_m;
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.wake_r;
    Unix.close t.wake_w
  end;
  Mutex.unlock t.drain_m

let exec_wakeups t = Scheduler.wakeups t.sched

(* First call wins; makes the wake pipe readable for good, so every line
   reader and [serve_socket]'s accept loop parked in [select] returns.
   Safe from any ordinary thread — never call it from a signal handler
   (it takes a lock); the CLI uses a sigwait thread. *)
let request_drain t =
  if not (Atomic.exchange t.draining true) then begin
    Mutex.lock t.drain_m;
    if not t.closed then
      (try ignore (Unix.write_substring t.wake_w "d" 0 1 : int) with Unix.Unix_error _ -> ());
    Mutex.unlock t.drain_m
  end

let make_client t ~output =
  {
    cid = Atomic.fetch_and_add t.next_cid 1;
    output;
    out_m = Mutex.create ();
    wake_m = Mutex.create ();
    wake = Condition.create ();
    inflight = 0;
    cancelled = Atomic.make false;
  }

(* A write failure means the client is gone: mark it cancelled, drop its
   queued jobs (running ones observe the flag through their interrupt)
   and wake its waiters.  Idempotent. *)
let client_gone t client =
  if not (Atomic.exchange client.cancelled true) then begin
    let n = Scheduler.cancel t.sched ~client:client.cid in
    if n > 0 then ignore (Atomic.fetch_and_add t.counters.cancelled n);
    Mutex.lock client.wake_m;
    client.inflight <- client.inflight - n;
    Condition.broadcast client.wake;
    Mutex.unlock client.wake_m
  end

let client_write t client line =
  Mutex.lock client.out_m;
  let ok =
    (* [serve.write] injects here exactly what a vanished peer produces —
       an exception out of [output] — so the injected failure and the
       real one share the whole [client_gone] recovery path. *)
    match Chaos.decide t.config.chaos Chaos.Serve_write with
    | Chaos.Fail | Chaos.Torn -> false
    | Chaos.Pass -> (try client.output line; true with _ -> false)
  in
  Mutex.unlock client.out_m;
  if not ok then client_gone t client

let limits t =
  {
    Protocol.max_patterns = t.config.max_patterns;
    max_seconds = t.config.max_seconds;
    max_request_evals = t.config.max_request_evals;
  }

(* Universe construction is deterministic per circuit name, so one build
   serves every request; the mutex covers concurrent first requests.
   A failing lookup is a [Reject] — a structured error response — never
   an exception that could take an executor down (the old [failwith]
   here killed the executor domain mid-service). *)
let universe_of t name =
  Mutex.lock t.universes_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.universes_m)
    (fun () ->
      match Hashtbl.find_opt t.universes name with
      | Some p -> p
      | None ->
          let nl =
            match t.find_circuit name with
            | Ok nl -> nl
            | Error e -> raise (Reject (Printf.sprintf "circuit lookup failed: %s" e))
          in
          let u = Faultsim.universe nl in
          let p =
            {
              universe = u;
              circuit_digest = Faultsim.circuit_digest u;
              universe_digest = Faultsim.universe_digest u;
            }
          in
          Hashtbl.add t.universes name p;
          p)

(* --- Stats -------------------------------------------------------------------- *)

let stats_line t =
  let c = t.counters in
  let opt_budget = function None -> Json.Null | Some n -> Json.Int n in
  let cache_hits, cache_misses, cache_entries, cache_evictions = Cache.stats t.rcache in
  let dur f = Json.Int (match t.durable with None -> 0 | Some d -> f d) in
  let persisted, persist_failed, recovered_jobs =
    match t.durable with
    | None -> (0, 0, 0)
    | Some d ->
        Mutex.lock d.dur_m;
        let r = (d.cache_persisted, d.cache_persist_failed, d.recovered_jobs) in
        Mutex.unlock d.dur_m;
        r
  in
  [
    ("uptime_s", Json.Float (Obs.now () -. t.t0));
    ("lines", Json.Int (Atomic.get c.lines));
    ("accepted", Json.Int (Atomic.get c.accepted));
    ("ok", Json.Int (Atomic.get c.completed_ok));
    ("partial", Json.Int (Atomic.get c.completed_partial));
    ("failed", Json.Int (Atomic.get c.failed));
    ("rejected_invalid", Json.Int (Atomic.get c.rejected_invalid));
    ("rejected_overload", Json.Int (Atomic.get c.rejected_overload));
    ("rejected_draining", Json.Int (Atomic.get c.rejected_draining));
    ("rejected_budget", Json.Int (Atomic.get c.rejected_budget));
    ("cancelled", Json.Int (Atomic.get c.cancelled));
    ("connections", Json.Int (Atomic.get c.connections));
    ("queue_depth", Json.Int (Scheduler.depth t.sched));
    ("queue_capacity", Json.Int t.config.queue_capacity);
    ("executors", Json.Int t.config.executors);
    ("exec_wakeups", Json.Int (Scheduler.wakeups t.sched));
    ("exec_crashes", Json.Int (Scheduler.crashes t.sched));
    ("exec_respawns", Json.Int (Scheduler.respawns t.sched));
    ("exec_spawn_failures", Json.Int (Scheduler.spawn_failures t.sched));
    ("executors_live", Json.Int (Scheduler.live_workers t.sched));
    ("idle_reaps", Json.Int (Atomic.get c.idle_reaps));
    ("chaos_injected", Json.Int (Chaos.injected t.config.chaos));
    ("global_evals_used", Json.Int (Atomic.get t.global_evals));
    ("global_evals_budget", opt_budget t.config.global_max_evals);
    ("cache_hits", Json.Int cache_hits);
    ("cache_misses", Json.Int cache_misses);
    ("cache_entries", Json.Int cache_entries);
    ("cache_capacity", Json.Int t.config.cache_capacity);
    ("cache_evictions", Json.Int cache_evictions);
    ("circuits_cached", Json.Int (Hashtbl.length t.universes));
    (* Durability counters are always present (zero without [data_dir])
       so stats consumers never need to probe for the fields. *)
    ("journal_appends", dur (fun d -> Journal.appends d.journal));
    ("journal_fsyncs", dur (fun d -> Journal.fsyncs d.journal));
    ("journal_recovered", Json.Int recovered_jobs);
    ("journal_pending", dur (fun d -> Journal.pending_count d.journal));
    ("journal_truncated_tail", dur (fun d -> Journal.truncated_tail d.journal));
    ("journal_compactions", dur (fun d -> Journal.compactions d.journal));
    ("cache_persisted", Json.Int persisted);
    ("cache_persist_failed", Json.Int persist_failed);
    ("cache_corrupt_quarantined", dur (fun d -> d.cache_corrupt));
    ("cache_stale_removed", dur (fun d -> d.cache_stale_removed));
    ("cache_loaded", dur (fun d -> d.cache_loaded));
    ("restart_generation", dur (fun d -> Journal.generation d.journal));
  ]

(* --- Job execution -------------------------------------------------------------- *)

type job = {
  line_no : int;
  run : Protocol.run;
  jid : int option;  (* journal id; [None] = not journaled (no data dir, or test hook) *)
  replay : bool;     (* re-enqueued by boot recovery rather than a live client *)
}

let stop_cause_field (p : Outcome.partial) =
  match p.Outcome.stopped with
  | Some c -> Outcome.stop_cause_name c
  | None -> "site_failures"

(* The result-cache key: the checkpoint digests pin campaign identity
   (topology, fault universe — including any [gates] restriction — and
   the exact pattern set); engine/drop are appended because they
   shape the reported accounting ([gate_evals], [dt_s]) even though
   detection results are bit-identical across them.  [jobs] (domain
   count) is deliberately absent: it can never change any reported
   field's meaning for a [Complete] run's coverage.  The same identity
   also names the job's on-disk checkpoint — a replayed campaign after a
   crash finds its own progress file by content, not by connection.
   Returns the key with the three digests it was built from, for the
   checkpoint.  The circuit's digests come from [p]; a [gates] request
   runs on a restricted [u] that shares the circuit (so its digest) but
   hashes its own sites here, per request — clients choose the gate
   lists, so a memo of them would grow without bound.
   [None] = no durable identity (crash injection is a test hook). *)
let job_ident t r p u pats =
  if r.Protocol.crash_sid <> None then None
  else if t.config.cache_capacity = 0 && t.durable = None then None
  else
    let universe_digest =
      match r.Protocol.gates with
      | None -> p.universe_digest
      | Some _ -> Faultsim.universe_digest u
    in
    let patterns_digest = Faultsim.patterns_digest pats in
    let key =
      String.concat "|"
        [
          p.circuit_digest;
          universe_digest;
          patterns_digest;
          Protocol.engine_name r.Protocol.engine;
          string_of_bool r.Protocol.drop;
        ]
    in
    Some (key, (p.circuit_digest, universe_digest, patterns_digest))

(* Does a persisted cache key have the shape [job_ident] builds today?
   Five '|'-separated parts: three MD5 hex digests, an engine this build
   serves, and the drop flag.  An entry keyed by an older shape (a build
   whose identity still carried the "algo" component, or a removed
   engine) can never be looked up again — rehydrated, it would only hold
   an LRU slot. *)
let current_key key =
  let digest s =
    String.length s = 32
    && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s
  in
  match String.split_on_char '|' key with
  | [ c; u; p; engine; drop ] ->
      digest c && digest u && digest p
      && List.mem_assoc engine Protocol.engines
      && (drop = "true" || drop = "false")
  | _ -> false

let remove_checkpoint path =
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; path ^ ".bak" ]

(* Build (or resume) the per-job checkpoint controller.  Only jobs big
   enough to be worth the write amplification get one ([ckpt_patterns]);
   a checkpoint corrupted beyond its [.bak] is discarded and the job
   restarts from scratch — durability must never wedge a request. *)
let job_checkpoint t (key, digests) u pats ~patterns =
  match t.durable with
  | Some d when patterns >= t.config.ckpt_patterns ->
      let path =
        Filename.concat d.ckpt_dir (Digest.to_hex (Digest.string key) ^ ".ckpt")
      in
      let make ~resume =
        Faultsim.checkpoint_ctl ~path ~interval:t.config.ckpt_interval ~resume
          ~chaos:t.config.chaos ~digests u pats
      in
      (try Some (make ~resume:true)
       with Checkpoint.Error _ -> (
         remove_checkpoint path;
         try Some (make ~resume:false) with Checkpoint.Error _ -> None))
  | _ -> None

let ckpt_discard ckpt =
  match ckpt with
  | None -> ()
  | Some ctl ->
      (* A completed job's checkpoint is dead weight — worse, a stale one
         would preload a finished state into an unrelated future run of
         the same identity (harmlessly, but pointlessly). *)
      remove_checkpoint (Checkpoint.path ctl)

(* Publish an entry in memory and delete the disk copy of the entry it
   evicted, so the cache directory holds no more entries than the LRU
   does and a boot re-reads only those.  The unlink runs outside the
   cache mutex, and a file already gone is fine.  Should the evicted key
   be computed and persisted again in between, the new file goes too;
   that costs one miss after the next restart. *)
let cache_add t key entry =
  match (Cache.add t.rcache key entry, t.durable) with
  | Some victim, Some d -> (
      try Sys.remove (Cache_store.file_of d.cache_dir victim) with Sys_error _ -> ())
  | _ -> ()

(* Write one entry to the data dir and count the outcome.  A failed
   persist is absorbed: the in-memory entry still serves this boot, only
   warm-restart reuse is lost (the maintenance hook retries). *)
let persist t d key (e : Cache.entry) =
  let ok =
    match
      Cache_store.save ~chaos:t.config.chaos d.cache_dir
        {
          Cache_store.key;
          summary = e.Cache.summary;
          dt_s = e.Cache.dt_s;
          evals = e.Cache.evals;
          n_sites = e.Cache.n_sites;
        }
    with
    | () -> true
    | exception Cache_store.Error _ -> false
  in
  e.Cache.persisted <- ok;
  Mutex.lock d.dur_m;
  if ok then d.cache_persisted <- d.cache_persisted + 1
  else d.cache_persist_failed <- d.cache_persist_failed + 1;
  Mutex.unlock d.dur_m

let exec_job t client job =
  let r = job.run in
  let replay = job.replay in
  let p = universe_of t r.Protocol.circuit in
  let u =
    match r.Protocol.gates with
    | None -> p.universe
    | Some gates -> Faultsim.restrict_universe p.universe ~gates  (* Invalid_argument on bad ids *)
  in
  let n_sites = Faultsim.n_sites u in
  (match r.Protocol.crash_sid with
  | Some sid when sid >= n_sites ->
      raise
        (Reject
           (Printf.sprintf "field \"crash_sid\": site id %d out of range (%d sites)" sid n_sites))
  | _ -> ());
  let nl = Compiled.netlist u.Faultsim.compiled in
  let prng = Dynmos_util.Prng.create r.Protocol.seed in
  let pats =
    Faultsim.random_patterns prng
      ~n_inputs:(List.length (Netlist.inputs nl))
      ~count:r.Protocol.patterns
  in
  let ident = job_ident t r p u pats in
  let key = if t.config.cache_capacity = 0 then None else Option.map fst ident in
  match Option.bind key (fun k -> Cache.find t.rcache k) with
  | Some e ->
      (* Served from the cache: zero gate evaluations, nothing charged
         to the global budget, per-request limits vacuously satisfied. *)
      (e.Cache.summary, e.Cache.dt_s, e.Cache.evals, e.Cache.n_sites, true, e.Cache.recovered)
  | None ->
      (* Global budget: admission control against a server-wide spend.
         Checked at execution time (the budget moves between admission
         and execution) and only for real work — cache hits are free. *)
      let global_remaining =
        match t.config.global_max_evals with
        | None -> None
        | Some budget ->
            let remaining = budget - Atomic.get t.global_evals in
            if remaining <= 0 then begin
              Atomic.incr t.counters.rejected_budget;
              raise (Reject "global gate-evaluation budget exhausted")
            end;
            Some remaining
      in
      let crash_hook =
        Option.map
          (fun sid jid ->
            if jid = sid then failwith (Printf.sprintf "injected crash at site %d" sid))
          r.Protocol.crash_sid
      in
      let deadline = Obs.now () +. r.Protocol.deadline_s in
      let max_evals =
        match (r.Protocol.max_evals, global_remaining) with
        | None, None -> None
        | Some n, None -> Some n
        | None, Some g -> Some g
        | Some n, Some g -> Some (min n g)
      in
      (* A disconnected client's running job stops at the next pattern
         unit through the engines' cooperative interrupt. *)
      let interrupt () = Atomic.get client.cancelled in
      let on_progress =
        match r.Protocol.stream_every with
        | None -> None
        | Some every ->
            let last = ref 0 in
            Some
              (fun ~units_done ~detected ->
                if units_done - !last >= every && not (Atomic.get client.cancelled) then begin
                  last := units_done;
                  client_write t client
                    (Protocol.response ~line:job.line_no ?id:r.Protocol.id ~status:"progress"
                       [
                         ("units_done", Json.Int units_done);
                         ("units_total", Json.Int r.Protocol.patterns);
                         ("detected", Json.Int detected);
                       ])
                end)
      in
      (* The run's gate evaluations, from its counts: what the global
         budget is charged and the response reports.  The engine's
         events go to the server's own recorder. *)
      let evals = ref 0 in
      let on_counts (c : Campaign.counts) = evals := c.Campaign.gate_evals in
      let drop = r.Protocol.drop in
      (* OCaml caps a process at 128 domains (5.1), and more domains
         than [recommended_domain_count] cores only oversubscribe the
         machine: a larger request is clamped here, not rejected. *)
      let num_domains =
        Option.map (fun j -> min j (Domain.recommended_domain_count ())) r.Protocol.jobs
      in
      let ckpt =
        Option.bind ident (fun id -> job_checkpoint t id u pats ~patterns:r.Protocol.patterns)
      in
      let t0 = Obs.now () in
      let summary =
        match r.Protocol.engine with
        | `Serial ->
            Faultsim.run_serial ~drop ~obs:t.obs ~deadline ?max_evals ~interrupt
              ?checkpoint:ckpt ~on_counts ?crash_hook ?on_progress u pats
        | `Ppsfp ->
            Faultsim.run_ppsfp ~drop ?num_domains ~obs:t.obs ~deadline ?max_evals ~interrupt
              ?checkpoint:ckpt ~on_counts ?crash_hook ?on_progress u pats
      in
      let dt = Obs.now () -. t0 in
      let evals = !evals in
      ignore (Atomic.fetch_and_add t.global_evals evals);
      (match summary.Faultsim.outcome with
      | Outcome.Complete ->
          ckpt_discard ckpt;
          (match key with
          | Some k -> (
              (* A lost insert only costs a future cache miss — the response
                 already carries the summary — which is why [cache.insert]
                 failures are safe to swallow here. *)
              match Chaos.decide t.config.chaos Chaos.Cache_insert with
              | Chaos.Fail | Chaos.Torn -> ()
              | Chaos.Pass ->
                  let entry =
                    {
                      Cache.summary;
                      dt_s = dt;
                      evals;
                      n_sites;
                      recovered = replay;
                      persisted = false;
                      stamp = 0;
                    }
                  in
                  (* Persist before publishing in memory so [persisted]
                     never claims a write that didn't happen. *)
                  Option.iter (fun d -> persist t d k entry) t.durable;
                  cache_add t k entry)
          | None -> ())
      | Outcome.Partial _ -> ());
      (summary, dt, evals, n_sites, false, replay)

let job_response t client job =
  let r = job.run in
  let base_fields summary dt evals n_sites cached recovered =
    [
      ("circuit", Json.String r.Protocol.circuit);
      ("engine", Json.String (Protocol.engine_name r.Protocol.engine));
      ("sites", Json.Int n_sites);
      ("patterns", Json.Int r.Protocol.patterns);
      ("detected", Json.Int (Faultsim.n_detected summary));
      ("coverage", Json.Float (Faultsim.coverage summary));
      ("dt_s", Json.Float dt);
      ("gate_evals", Json.Int evals);
      ("cached", Json.Bool cached);
      ("recovered", Json.Bool recovered);
    ]
  in
  let respond ~status fields =
    (status, Protocol.response ~line:job.line_no ?id:r.Protocol.id ~status fields)
  in
  match exec_job t client job with
  | summary, dt, evals, n_sites, cached, recovered -> (
      match summary.Faultsim.outcome with
      | Outcome.Complete ->
          respond ~status:"ok" (base_fields summary dt evals n_sites cached recovered)
      | Outcome.Partial p ->
          let failed =
            List.map
              (fun (sid, msg) ->
                Json.Obj [ ("sid", Json.Int sid); ("error", Json.String msg) ])
              p.Outcome.failed_sites
          in
          respond ~status:"partial"
            (base_fields summary dt evals n_sites cached recovered
            @ [
                ("cause", Json.String (stop_cause_field p));
                ("patterns_done", Json.Int summary.Faultsim.patterns_done);
                ("sites_done", Json.Int summary.Faultsim.sites_done);
                ("coverage_of_done", Json.Float (Faultsim.coverage_of_done summary));
                ("failed_sites", Json.List failed);
              ]))
  | exception Reject msg ->
      respond ~status:"error" [ ("error", Json.String msg) ]
  | exception (Invalid_argument msg | Failure msg) ->
      respond ~status:"error" [ ("error", Json.String msg) ]
  | exception exn ->
      (* The supervised pool isolates per-site crashes; anything that
         still lands here (a bug in an engine, Out_of_memory on an
         absurd workload) is reported on the request's line and the
         loop keeps serving. *)
      respond ~status:"error" [ ("error", Json.String (Printexc.to_string exn)) ]

(* Record a job's terminal outcome in the journal.  A lost done record
   is absorbed — it only costs a redundant, idempotent replay at the
   next boot (the result cache answers it without re-simulating). *)
let journal_done t job ~status =
  match (t.durable, job.jid) with
  | Some d, Some jid -> (
      try Journal.append_done d.journal ~jid ~status with Journal.Error _ -> ())
  | _ -> ()

(* Executed on a scheduler worker.  [inflight] was incremented by
   [submit]; whatever happens, it is decremented exactly once here (or
   by [client_gone] for tasks cancelled before they ran). *)
let run_job t client job =
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock client.wake_m;
      client.inflight <- client.inflight - 1;
      Condition.broadcast client.wake;
      Mutex.unlock client.wake_m)
    (fun () ->
      if Atomic.get client.cancelled then begin
        Atomic.incr t.counters.cancelled;
        journal_done t job ~status:"dropped"
      end
      else begin
        let status, resp = job_response t client job in
        (match status with
        | "ok" -> Atomic.incr t.counters.completed_ok
        | "partial" -> Atomic.incr t.counters.completed_partial
        | _ -> Atomic.incr t.counters.failed);
        journal_done t job ~status;
        if Obs.enabled t.obs then
          Obs.emit t.obs ~ev:"serve.request"
            [
              ("line", Obs.Int job.line_no);
              ("circuit", Obs.String job.run.Protocol.circuit);
              ("status", Obs.String status);
            ];
        client_write t client resp
      end)

(* Count [job] in flight for [client] and hand it to the pool; a refused
   submit is uncounted again.  A journaled job is journaled before this
   runs, so the record is durable before any worker can start it. *)
let submit t client job =
  Mutex.lock client.wake_m;
  client.inflight <- client.inflight + 1;
  Mutex.unlock client.wake_m;
  match Scheduler.submit t.sched ~client:client.cid (fun () -> run_job t client job) with
  | `Ok _ as ok -> ok
  | (`Full | `Closed) as refused ->
      Mutex.lock client.wake_m;
      client.inflight <- client.inflight - 1;
      Condition.broadcast client.wake;
      Mutex.unlock client.wake_m;
      refused

(* Block until every job [client] has in flight is answered. *)
let await_answers client =
  Mutex.lock client.wake_m;
  while client.inflight > 0 do
    Condition.wait client.wake client.wake_m
  done;
  Mutex.unlock client.wake_m

(* --- Boot: durable state and recovery ------------------------------------------- *)

let rec mkdir_p dir =
  if dir <> "" && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ()
  end

(* Replay the journal's unfinished jobs through the ordinary execution
   path, one at a time on a pseudo-client whose output is discarded (the
   connection those jobs arrived on died with the previous process; what
   survives is the journal's done record and the result cache entry,
   which answers the client's retry with [recovered:true]).  Serial
   replay keeps recovery bounded — live traffic always has executors to
   run on — and deterministic.  Runs on its own thread so boot returns
   immediately; [wait_recovery] joins it. *)
let recover t d entries =
  let client = make_client t ~output:(fun _ -> ()) in
  List.iter
    (fun { Journal.jid; envelope } ->
      if not (Atomic.get t.draining) then
        match
          Protocol.parse_request ~limits:(limits t) ~known_circuit:t.known_circuit envelope
        with
        | Ok (Protocol.Run run) -> (
            match submit t client { line_no = 0; run; jid = Some jid; replay = true } with
            | `Ok _ ->
                await_answers client;
                Mutex.lock d.dur_m;
                d.recovered_jobs <- d.recovered_jobs + 1;
                Mutex.unlock d.dur_m
            | `Full | `Closed ->
                (* Draining or shut down: leave the job pending — the
                   next boot replays it. *)
                ())
        | Ok _ | Error _ ->
            (* An envelope the schema rejects cannot be re-run; close it
               out so it doesn't haunt every future boot.  (Can only
               happen when the journal was written by a build with a
               different schema or edited by hand — the CRC already
               vetted the bytes.) *)
            (try Journal.append_done d.journal ~jid ~status:"error" with Journal.Error _ -> ()))
    entries;
  if Obs.enabled t.obs then
    Obs.emit t.obs ~ev:"serve.recovery"
      [
        ("jobs", Obs.Int (List.length entries));
        ("generation", Obs.Int (Journal.generation d.journal));
      ]

let create ?(config = default_config) ?trace ?(known_circuit = Catalog.mem)
    ?(find_circuit = Catalog.find) () =
  let bad what n =
    invalid_arg (Printf.sprintf "Server.create: %s must be positive (got %d)" what n)
  in
  if config.queue_capacity < 1 then bad "queue_capacity" config.queue_capacity;
  if config.executors < 1 then bad "executors" config.executors;
  if config.max_patterns < 0 then bad "max_patterns" config.max_patterns;
  if not (config.max_seconds > 0.0) then
    invalid_arg
      (Printf.sprintf "Server.create: max_seconds must be positive (got %g)" config.max_seconds);
  (match config.max_request_evals with Some n when n < 1 -> bad "max_request_evals" n | _ -> ());
  (match config.global_max_evals with Some n when n < 1 -> bad "global_max_evals" n | _ -> ());
  if config.max_line_bytes < 2 then bad "max_line_bytes" config.max_line_bytes;
  if config.cache_capacity < 0 then
    invalid_arg
      (Printf.sprintf "Server.create: cache_capacity must be >= 0 (got %d)"
         config.cache_capacity);
  if config.ckpt_patterns < 0 then
    invalid_arg
      (Printf.sprintf "Server.create: ckpt_patterns must be >= 0 (got %d)"
         config.ckpt_patterns);
  if config.ckpt_interval < 1 then bad "ckpt_interval" config.ckpt_interval;
  (match config.idle_timeout_s with
  | Some s when not (s > 0.0) ->
      invalid_arg
        (Printf.sprintf "Server.create: idle_timeout_s must be positive (got %g)" s)
  | _ -> ());
  (* Recovery order: journal first (pins the boot generation and the
     replay work list), then the on-disk cache (so replays of jobs whose
     results did land before the crash are answered without
     re-simulating; entries of an older key shape are deleted), then —
     lazily, per job — the checkpoints. *)
  let durable, disk_entries =
    match config.data_dir with
    | None -> (None, [])
    | Some dir ->
        mkdir_p dir;
        let cache_dir = Filename.concat dir "cache" in
        let ckpt_dir = Filename.concat dir "ckpt" in
        mkdir_p cache_dir;
        mkdir_p ckpt_dir;
        (* No writer of ours is live yet: every tmp here is a crash's. *)
        List.iter
          (fun d -> ignore (Dynmos_durable.Durable.sweep_stale ~all:true d : int))
          [ cache_dir; ckpt_dir ];
        let journal = Journal.open_ ~chaos:config.chaos (Filename.concat dir "journal") in
        let entries, cache_corrupt = Cache_store.load_all cache_dir in
        let entries, stale =
          List.partition (fun (e : Cache_store.entry) -> current_key e.Cache_store.key) entries
        in
        List.iter
          (fun (e : Cache_store.entry) ->
            try Sys.remove (Cache_store.file_of cache_dir e.Cache_store.key) with Sys_error _ -> ())
          stale;
        ( Some
            {
              journal;
              cache_dir;
              ckpt_dir;
              cache_loaded = List.length entries;
              cache_corrupt;
              cache_stale_removed = List.length stale;
              dur_m = Mutex.create ();
              cache_persisted = 0;
              cache_persist_failed = 0;
              recovered_jobs = 0;
            },
          entries )
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      config;
      counters = make_counters ();
      obs = Option.fold ~none:Obs.disabled ~some:Obs.make trace;
      known_circuit;
      find_circuit;
      universes = Hashtbl.create 8;
      universes_m = Mutex.create ();
      rcache = Cache.create config.cache_capacity;
      sched =
        Scheduler.create ~num_domains:config.executors ~capacity:config.queue_capacity
          ~chaos:config.chaos ();
      global_evals = Atomic.make 0;
      draining = Atomic.make false;
      next_cid = Atomic.make 0;
      drain_m = Mutex.create ();
      wake_r;
      wake_w;
      closed = false;
      durable;
      recovery = None;
      t0 = Obs.now ();
    }
  in
  (* Loaded in file-name order; past [cache_capacity] (a lower limit
     than the data dir was written under), the LRU evicts and
     [cache_add] deletes the overflow. *)
  List.iter
    (fun (e : Cache_store.entry) ->
      cache_add t e.Cache_store.key
        {
          Cache.summary = e.Cache_store.summary;
          dt_s = e.Cache_store.dt_s;
          evals = e.Cache_store.evals;
          n_sites = e.Cache_store.n_sites;
          recovered = true;
          persisted = true;
          stamp = 0;
        })
    disk_entries;
  (match durable with
  | Some d ->
      let pending = Journal.recovered d.journal in
      if pending <> [] then t.recovery <- Some (Thread.create (fun () -> recover t d pending) ())
  | None -> ());
  t

let wait_recovery t = match t.recovery with None -> () | Some th -> Thread.join th

(* The SIGHUP hook: compact the journal, retry every cache entry whose
   disk write failed, and emit a durability snapshot to the trace sink —
   all without touching admission or live connections. *)
let maintenance t =
  match t.durable with
  | None -> ()
  | Some d ->
      (try Journal.compact d.journal with Journal.Error _ -> ());
      List.iter
        (fun (k, (e : Cache.entry)) -> if not e.Cache.persisted then persist t d k e)
        (Cache.snapshot t.rcache);
      if Obs.enabled t.obs then
        Obs.emit t.obs ~ev:"serve.maintenance"
          [
            ("journal_pending", Obs.Int (Journal.pending_count d.journal));
            ("journal_compactions", Obs.Int (Journal.compactions d.journal));
            ("generation", Obs.Int (Journal.generation d.journal));
          ]

(* --- Admission -------------------------------------------------------------------- *)

(* Best-effort id salvage for schema-level rejections: when the line is
   well-formed JSON with an "id", echo it so the client can correlate
   without relying on line numbers. *)
let salvage_id line =
  match Json.parse line with Ok obj -> Json.member "id" obj | Error _ -> None

let admit t client ~line_no line =
  let c = t.counters in
  Atomic.incr c.lines;
  let reject reason msg id =
    (match reason with
    | `Invalid -> Atomic.incr c.rejected_invalid
    | `Overloaded -> Atomic.incr c.rejected_overload
    | `Draining -> Atomic.incr c.rejected_draining);
    if Obs.enabled t.obs then
      Obs.emit t.obs ~ev:"serve.reject"
        [
          ("line", Obs.Int line_no);
          ( "reason",
            Obs.String
              (match reason with
              | `Invalid -> "invalid"
              | `Overloaded -> "overloaded"
              | `Draining -> "draining") );
        ];
    let status = match reason with
      | `Invalid -> "error"
      | `Overloaded -> "overloaded"
      | `Draining -> "draining"
    in
    let fields =
      match reason with
      | `Overloaded ->
          [
            ("error", Json.String msg);
            ("queue_depth", Json.Int (Scheduler.depth t.sched));
            ("queue_capacity", Json.Int t.config.queue_capacity);
          ]
      | _ -> [ ("error", Json.String msg) ]
    in
    client_write t client (Protocol.response ~line:line_no ?id ~status fields)
  in
  if String.length line > t.config.max_line_bytes then
    reject `Invalid
      (Printf.sprintf "request line exceeds %d bytes" t.config.max_line_bytes)
      None
  else
    match Protocol.parse_request ~limits:(limits t) ~known_circuit:t.known_circuit line with
    | Error msg -> reject `Invalid msg (salvage_id line)
    | Ok (Protocol.Ping id) ->
        client_write t client (Protocol.response ~line:line_no ?id ~status:"pong" [])
    | Ok (Protocol.Stats id) ->
        client_write t client
          (Protocol.response ~line:line_no ?id ~status:"stats" (stats_line t))
    | Ok (Protocol.Run run) ->
        if Atomic.get t.draining then
          reject `Draining "server is draining; request not admitted" run.Protocol.id
        else begin
          (* Log-before-work: the job is admitted only once its envelope
             is durably journaled, so a kill -9 after this point cannot
             lose it.  A journal that cannot take the record means the
             durability contract cannot be honoured — the request is
             refused, not silently run undurable.  [crash_sid] requests
             (test hooks) are never journaled, like they are never
             cached. *)
          let jid =
            match t.durable with
            | Some d when run.Protocol.crash_sid = None -> (
                match
                  Journal.append_admit d.journal
                    ~envelope:(Protocol.run_envelope run)
                with
                | jid -> Ok (Some jid)
                | exception Journal.Error msg -> Error msg)
            | _ -> Ok None
          in
          match jid with
          | Error msg ->
              Atomic.incr c.failed;
              client_write t client
                (Protocol.response ~line:line_no ?id:run.Protocol.id ~status:"error"
                   [ ("error", Json.String ("journal append failed: " ^ msg)) ])
          | Ok jid -> (
              let job = { line_no; run; jid; replay = false } in
              match submit t client job with
              | `Ok depth ->
                  Atomic.incr c.accepted;
                  if Obs.enabled t.obs then
                    Obs.emit t.obs ~ev:"serve.accept"
                      [
                        ("line", Obs.Int line_no);
                        ("circuit", Obs.String run.Protocol.circuit);
                        ("engine", Obs.String (Protocol.engine_name run.Protocol.engine));
                        ("queue_depth", Obs.Int depth);
                      ]
              | (`Full | `Closed) as r ->
                  journal_done t job ~status:"dropped";
                  (match r with
                  | `Full ->
                      reject `Overloaded
                        (Printf.sprintf "pending queue full (%d requests)"
                           t.config.queue_capacity)
                        run.Protocol.id
                  | `Closed ->
                      reject `Draining "server is draining; request not admitted"
                        run.Protocol.id))
        end

(* --- The serve loop -------------------------------------------------------------- *)

type stop = [ `Eof | `Drained ]

(* The one line reader, for stdin and sockets alike.  It reads [fd] in
   4 KiB chunks and splits on '\n'; an unterminated last line is
   delivered before EOF.  Of each line it keeps at most
   [max_line_bytes + 1] bytes and drops the rest through the next
   newline, so [admit] still answers an over-long line with its length
   error on its own line number, and one endless line cannot grow the
   server.  [select] waits on [fd] and on the wake pipe, so a drain frees
   a reader parked on a silent stdin as well as on a socket; with
   [idle_timeout_s], that much silence surfaces as [`Idle].  [serve.read]
   is decided once per read: [Fail]/[Torn] end the input as if the peer
   vanished, [Delay] stalls the reader, which is what the idle timeout
   defends against. *)
let line_reader t ?idle_timeout_s fd =
  let cap = t.config.max_line_bytes + 1 in
  let chunk = Bytes.create 4096 in
  let pos = ref 0 and len = ref 0 in
  let line = Buffer.create 256 in
  let at_eof = ref false in
  let watched = [ fd; t.wake_r ] in
  let timeout = Option.value idle_timeout_s ~default:(-1.0) in
  let keep upto =
    Buffer.add_subbytes line chunk !pos (min (upto - !pos) (cap - Buffer.length line));
    pos := upto
  in
  let take () =
    let l = Buffer.contents line in
    Buffer.reset line;
    `Line l
  in
  let rec newline i =
    if i = !len then None else if Bytes.get chunk i = '\n' then Some i else newline (i + 1)
  in
  let rec next () =
    match newline !pos with
    | Some i ->
        keep i;
        pos := i + 1;
        take ()
    | None ->
        keep !len;
        if not !at_eof then
          if Chaos.decide t.config.chaos Chaos.Serve_read <> Chaos.Pass then eof () else wait ()
        else if Buffer.length line > 0 then take ()
        else `Eof
  and eof () =
    at_eof := true;
    next ()
  and wait () =
    match Unix.select watched [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> eof ()
    | [], _, _ -> `Idle
    | ready, _, _ -> if List.mem t.wake_r ready then `Eof else read ()
  and read () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
    | 0 | (exception Unix.Unix_error _) -> eof ()
    | n ->
        pos := 0;
        len := n;
        next ()
  in
  next

(* The one session loop, run on the calling thread for stdin, each
   socket connection and [serve] alike: read and admit lines until EOF,
   drain, disconnect or an idle reap, then wait until every admitted job
   has been answered. *)
let session t ~output read =
  let client = make_client t ~output in
  let rec loop line_no =
    if not (Atomic.get t.draining || Atomic.get client.cancelled) then
      match read () with
      | `Line line ->
          admit t client ~line_no line;
          loop (line_no + 1)
      | `Eof -> ()
      | `Idle ->
          (* A silent connection with nothing in flight is dead weight —
             reap it so its thread frees up.  With work still in flight,
             keep waiting: the client is presumably blocked on our
             responses, not gone. *)
          let busy =
            Mutex.lock client.wake_m;
            let b = client.inflight > 0 in
            Mutex.unlock client.wake_m;
            b
          in
          if busy then loop line_no
          else begin
            Atomic.incr t.counters.idle_reaps;
            if Obs.enabled t.obs then
              Obs.emit t.obs ~ev:"serve.idle_reap" [ ("cid", Obs.Int client.cid) ]
          end
  in
  (try loop 1 with _ -> ());
  await_answers client;
  let stop : stop = if Atomic.get t.draining then `Drained else `Eof in
  if Obs.enabled t.obs then
    Obs.emit t.obs ~ev:"serve.drain"
      [
        ("reason", Obs.String (match stop with `Eof -> "eof" | `Drained -> "signal"));
        ("lines", Obs.Int (Atomic.get t.counters.lines));
        ("accepted", Obs.Int (Atomic.get t.counters.accepted));
      ];
  stop

let serve t ~input ~output () =
  session t ~output (fun () ->
      match input () with Some line -> `Line line | None -> `Eof)

let line_output oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let serve_channels t ic oc =
  session t ~output:(line_output oc) (line_reader t (Unix.descr_of_in_channel ic))

let serve_socket t path =
  (* A client that disconnects mid-write must cost a cancelled session,
     not the process: without this the first write to the half-closed
     socket raises SIGPIPE and kills the server.  Ignored, the write
     fails with EPIPE, which [client_write] already turns into
     [client_gone]. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (if Sys.file_exists path then
     match (Unix.lstat path).Unix.st_kind with
     | Unix.S_SOCK -> Unix.unlink path
     | _ ->
         invalid_arg
           (Printf.sprintf "Server.serve_socket: %s exists and is not a socket" path));
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* The fds of the sessions still running; each session removes and
     closes its own fd, under [conns_m], when it has answered its work. *)
  let conns_m = Mutex.create () in
  let conns_done = Condition.create () in
  let live = ref [] in
  let connection fd () =
    let oc = Unix.out_channel_of_descr fd in
    (try
       ignore
         (session t ~output:(line_output oc)
            (line_reader t ?idle_timeout_s:t.config.idle_timeout_s fd)
           : stop)
     with _ -> ());
    Mutex.lock conns_m;
    live := List.filter (fun f -> f <> fd) !live;
    close_out_noerr oc;
    Condition.broadcast conns_done;
    Mutex.unlock conns_m
  in
  (* Accept until the wake pipe turns readable: [request_drain] reaches
     this loop the way it reaches every line reader. *)
  let rec accept () =
    match Unix.select [ sock; t.wake_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept ()
    | ready, _, _ when List.mem t.wake_r ready -> ()
    | _ -> (
        match Unix.accept sock with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept ()
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
            (* Out of fds: the connection waits in the backlog until a
               session closes its own; a drain still wakes the select. *)
            Unix.sleepf 0.05;
            accept ()
        | fd, _ ->
            Atomic.incr t.counters.connections;
            Mutex.lock conns_m;
            live := fd :: !live;
            Mutex.unlock conns_m;
            ignore (Thread.create (connection fd) ());
            accept ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 64;
      accept ();
      (* Drained: half-close the live connections, so a client's further
         writes fail rather than wait unread, then wait until every
         session has answered its admitted work and closed its fd. *)
      Mutex.lock conns_m;
      List.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ()) !live;
      while !live <> [] do
        Condition.wait conns_done conns_m
      done;
      Mutex.unlock conns_m)

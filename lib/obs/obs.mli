(** Observability: wall-clock timers and span events with a JSONL
    sink — the measurement substrate of the fault-simulation
    engines and the bench harness.

    Design constraints:
    - a disabled recorder ({!disabled}) costs one branch per emission
      point — no allocation, no clock read;
    - sinks are safe to share across OCaml 5 domains (each emission is
      serialized under a mutex), so per-domain workers can report into
      one trace;
    - one event per JSONL line, encoded by the repo's own codec
      ({!Dynmos_json.Json}, no external JSON library): objects only,
      keys and string values escaped per RFC 8259. *)

type value = Dynmos_json.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Obj of (string * value) list
(** A field value is a JSON value; events use the scalars. *)

type event = {
  ts : float;  (** wall-clock seconds since the epoch at emission *)
  ev : string;  (** event kind, e.g. ["faultsim.run"] *)
  fields : (string * value) list;
}

val json_line : event -> string
(** One-line JSON object: [{"ts":..., "ev":..., <fields>}] (no trailing
    newline), printed by {!Dynmos_json.Json.to_string}.  Non-finite
    floats are encoded as strings ("nan", "inf", "-inf") to keep the
    line valid JSON. *)

val int_field : event -> string -> int option
(** [int_field e k] is the [Int] value of field [k], if present — the
    accessor consumers (server stats, CLI [--stats], the bench) use to
    read counters like ["gate_evals"] or ["chaos_injected"] off
    ["faultsim.run"] events without re-implementing the assoc lookup. *)

(** {1 Sinks} *)

type sink

val null_sink : sink
(** Drops every event. *)

val channel_sink : out_channel -> sink
(** JSON Lines to a channel, one flushed line per event, mutex-guarded
    (safe from multiple domains).  The caller owns and closes the
    channel. *)

val memory_sink : unit -> sink * (unit -> event list)
(** In-memory collection (mutex-guarded); the second component returns
    the events emitted so far, in emission order.  For [--stats]
    summaries and tests. *)

val bounded_memory_sink :
  capacity:int -> sink * (unit -> event list) * (unit -> int)
(** Ring-buffer variant of {!memory_sink} for long-lived processes: at
    most [capacity] events are retained, the oldest overwritten first.
    Returns the sink, a fetch of the retained events (at most [capacity],
    in emission order) and the total number of events ever emitted (so a
    caller can report how many were dropped:
    [total () - List.length (fetch ())]).  Mutex-guarded, domain-safe.
    Raises [Invalid_argument] when [capacity <= 0].  The server's
    [--stats] path records into this sink so an unbounded stream of
    requests cannot grow memory. *)

val tee : sink -> sink -> sink
(** Every event goes to both sinks. *)

(** {1 Recorders} *)

type t

val disabled : t
(** The no-op recorder: {!enabled} is [false]; {!emit} does nothing;
    {!span} runs its thunk without reading the clock. *)

val make : sink -> t

val enabled : t -> bool
(** Hot paths should check this once before building field lists:
    [if Obs.enabled obs then Obs.emit obs ...]. *)

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]).  The single clock used by
    the engines and the bench harness — never [Sys.time], whose CPU
    semantics sums over domains and hides parallel speedups. *)

val emit : t -> ev:string -> (string * value) list -> unit
(** Emit one event (no-op when disabled). *)

val span : t -> name:string -> ?fields:(string * value) list -> (unit -> 'a) -> 'a
(** [span t ~name f] runs [f] and emits an event [ev = "span"] with
    [name] and the elapsed wall-clock time as ["dt_s"].  When disabled,
    [f] runs directly. *)

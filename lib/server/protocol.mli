(** The serve loop's JSONL protocol: one request object per input line,
    exactly one response object per line, every response carrying the
    1-based ["line"] it answers (responses may interleave across lines —
    immediate rejections overtake queued work — so the line number, not
    arrival order, is the correlation key).

    Requests: [{"op":"run", "circuit":"carry8", ...}] (op defaults to
    "run"), [{"op":"stats"}], [{"op":"ping"}].  Unknown ops and unknown
    fields are rejected by name — a typo yields an error response, never
    silent misbehavior.  Responses: [{"line":N, "id":..., "status":S,
    ...}] with status one of ok / partial / error / overloaded /
    draining / pong / stats.

    A run request carrying ["stream_every":K] additionally receives
    [{"status":"progress", ...}] lines while it executes — these are
    {e not} the response; the one-response-per-line invariant counts
    terminal statuses only (everything except "progress"). *)

type engine = [ `Serial | `Ppsfp ]

val engines : (string * engine) list
(** Every engine a request (or [dynmos faultsim --engine]) may name, by
    its protocol name. *)

val engine_name : engine -> string

type run = {
  id : Json.t option;  (** echoed verbatim in the response *)
  circuit : string;    (** validated against the catalog at admission *)
  patterns : int;
  seed : int;
  engine : engine;  (** [`Ppsfp] when the request names none *)
  jobs : int option;
      (** worker domains, [`Ppsfp] engine only; accepted in 1..1024,
          and the server clamps it to [Domain.recommended_domain_count ()]
          at execution *)
  drop : bool;
  gates : int list option;
      (** restrict the fault universe to these gate ids (validated
          against the circuit at execution time) *)
  deadline_s : float;
      (** effective per-request wall budget, already capped by the
          server's [max_seconds] *)
  max_evals : int option;
      (** effective per-request gate-eval budget, already capped by the
          server's [max_request_evals] *)
  crash_sid : int option;
      (** fault-injection test hook: evaluation of this site id raises,
          exercising the supervised pool's crash isolation end to end *)
  stream_every : int option;
      (** emit a ["progress"] line roughly every this many completed
          patterns *)
}

type request =
  | Run of run
  | Stats of Json.t option  (** payload: the request id, echoed *)
  | Ping of Json.t option

type limits = {
  max_patterns : int;
  max_seconds : float;
  max_request_evals : int option;
}
(** The admission caps {!parse_request} applies while validating. *)

val parse_request :
  limits:limits -> known_circuit:(string -> bool) -> string -> (request, string) result
(** Validate one input line against the schema.  Never raises: malformed
    JSON, a non-object, wrong field types, unknown fields or ops,
    unknown circuits, out-of-range pattern counts / seeds / budgets all
    return [Error] with a message naming the offending field.  The
    removed fields ["algo"] (fanout-cone injection is the only
    algorithm) and ["group"] (the ppsfp engine has no fault groups), and
    the removed engines ["parallel"] and ["domains"] (["ppsfp"] runs
    their kernel, on [jobs] domains), get their own messages. *)

val request_id : request -> Json.t option

val run_envelope : run -> string
(** The canonical client-independent journal envelope of a run request:
    one JSON line keeping every result-shaping field (circuit, patterns,
    seed, engine, jobs, drop, gates, the clamped deadline and
    eval budget) and dropping the connection-bound ones ([id],
    [stream_every], [crash_sid]).  Restart recovery replays envelopes
    through {!parse_request}, so the encoding cannot drift from the
    schema.  Responses to requests answered from recovered state carry
    ["recovered":true] next to ["cached"]. *)

val response :
  line:int -> ?id:Json.t -> status:string -> (string * Json.t) list -> string
(** One response line (no trailing newline): [{"line":N, "id":...,
    "status":S, <fields>}]; ["id"] is omitted when the request carried
    none. *)

(* Request validation and response encoding for the serve loop.  The
   design rule: every way a request can be wrong has a named error
   message, and validation happens before a job is admitted — the
   executor only ever sees structurally sound work (circuit-dependent
   checks like gate-id ranges are the one exception, resolved at
   execution time when the compiled circuit is in hand). *)

type engine = [ `Serial | `Ppsfp ]

let engines = [ ("serial", `Serial); ("ppsfp", `Ppsfp) ]

let engine_name = function `Serial -> "serial" | `Ppsfp -> "ppsfp"

type run = {
  id : Json.t option;
  circuit : string;
  patterns : int;
  seed : int;
  engine : engine;
  jobs : int option;
  drop : bool;
  gates : int list option;
  deadline_s : float;
  max_evals : int option;
  crash_sid : int option;
  stream_every : int option;
}

type request = Run of run | Stats of Json.t option | Ping of Json.t option

type limits = {
  max_patterns : int;
  max_seconds : float;
  max_request_evals : int option;
}

(* --- Field extraction -------------------------------------------------------- *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let to_int ~field = function
  | Json.Int n -> Ok n
  | Json.Float f
    when Float.is_integer f && f >= -1073741823. && f <= 1073741823. ->
      Ok (int_of_float f)
  | Json.Float _ -> err "field %S: number is not a representable integer" field
  | v -> err "field %S: expected an integer, got %s" field (Json.type_name v)

let to_float ~field = function
  | Json.Int n -> Ok (float_of_int n)
  | Json.Float f when Float.is_finite f -> Ok f
  | Json.Float _ -> err "field %S: number must be finite" field
  | v -> err "field %S: expected a number, got %s" field (Json.type_name v)

let to_bool ~field = function
  | Json.Bool b -> Ok b
  | v -> err "field %S: expected a boolean, got %s" field (Json.type_name v)

let to_string ~field = function
  | Json.String s -> Ok s
  | v -> err "field %S: expected a string, got %s" field (Json.type_name v)

let opt_field obj field conv =
  match Json.member field obj with
  | None -> Ok None
  | Some v ->
      let* x = conv ~field v in
      Ok (Some x)

(* Strictness: an unknown field is a rejected request.  A misspelled
   "max_evls" silently ignored would run without its budget — the
   opposite of what a robustness protocol should do. *)
let check_fields ~op ~allowed obj =
  match obj with
  | Json.Obj fields ->
      let rec go = function
        | [] -> Ok ()
        | (k, _) :: rest ->
            if List.mem k allowed then go rest
            else
              err "unknown field %S for op %S (allowed: %s)" k op
                (String.concat ", " allowed)
      in
      go fields
  | _ -> err "internal error: op %S: field check applied to a non-object request" op

(* --- Request parsing --------------------------------------------------------- *)

let parse_run ~limits ~known_circuit obj id =
  (* A removed field gets its own message: the generic unknown-field
     list would not say why a request that used to work is refused. *)
  let* () =
    match (Json.member "algo" obj, Json.member "group" obj) with
    | Some _, _ ->
        err "field \"algo\" was removed: fanout-cone injection is the only algorithm"
    | None, Some _ ->
        err
          "field \"group\" was removed: the \"ppsfp\" engine propagates one fault at a time \
           and has no fault groups"
    | None, None -> Ok ()
  in
  let* () =
    check_fields ~op:"run"
      ~allowed:
        [
          "op"; "id"; "circuit"; "patterns"; "seed"; "engine"; "jobs"; "drop"; "gates";
          "deadline_s"; "max_evals"; "crash_sid"; "stream_every";
        ]
      obj
  in
  let* circuit =
    match Json.member "circuit" obj with
    | None -> err "field %S is required for op \"run\"" "circuit"
    | Some v -> to_string ~field:"circuit" v
  in
  let* () =
    if known_circuit circuit then Ok () else err "unknown circuit %S" circuit
  in
  let* patterns = opt_field obj "patterns" to_int in
  let patterns = Option.value ~default:256 patterns in
  let* () =
    if patterns < 0 then err "field \"patterns\" must be >= 0 (got %d)" patterns
    else if patterns > limits.max_patterns then
      err "field \"patterns\": %d exceeds the per-request limit of %d" patterns
        limits.max_patterns
    else Ok ()
  in
  let* seed = opt_field obj "seed" to_int in
  let seed = Option.value ~default:42 seed in
  let* engine =
    match Json.member "engine" obj with
    | None -> Ok `Ppsfp
    | Some v -> (
        let* name = to_string ~field:"engine" v in
        match List.assoc_opt name engines with
        | Some e -> Ok e
        | None ->
            err "field \"engine\": %s %S (expected one of: %s)"
              (if name = "parallel" || name = "domains" then
                 "\"ppsfp\" (with \"jobs\" for domains) runs the kernel of the removed engine"
               else "unknown value")
              name
              (String.concat ", " (List.map fst engines)))
  in
  let* jobs = opt_field obj "jobs" to_int in
  let* () =
    match jobs with
    | Some j when j < 1 || j > 1024 -> err "field \"jobs\" must be in 1..1024 (got %d)" j
    | Some _ when engine <> `Ppsfp -> err "field \"jobs\" only applies to the \"ppsfp\" engine"
    | _ -> Ok ()
  in
  let* drop = opt_field obj "drop" to_bool in
  let drop = Option.value ~default:true drop in
  let* gates =
    match Json.member "gates" obj with
    | None -> Ok None
    | Some (Json.List l) ->
        let rec go acc = function
          | [] -> Ok (Some (List.rev acc))
          | v :: rest ->
              let* n = to_int ~field:"gates" v in
              go (n :: acc) rest
        in
        go [] l
    | Some v -> err "field \"gates\": expected an array of gate ids, got %s" (Json.type_name v)
  in
  let* deadline_s = opt_field obj "deadline_s" to_float in
  let* deadline_s =
    match deadline_s with
    | Some d when d <= 0.0 -> err "field \"deadline_s\" must be positive (got %g)" d
    | Some d -> Ok (Float.min d limits.max_seconds)
    | None -> Ok limits.max_seconds
  in
  let* max_evals = opt_field obj "max_evals" to_int in
  let* max_evals =
    match (max_evals, limits.max_request_evals) with
    | Some n, _ when n < 1 -> err "field \"max_evals\" must be >= 1 (got %d)" n
    | Some n, Some cap -> Ok (Some (min n cap))
    | Some n, None -> Ok (Some n)
    | None, cap -> Ok cap
  in
  let* stream_every = opt_field obj "stream_every" to_int in
  let* () =
    match stream_every with
    | Some n when n < 1 -> err "field \"stream_every\" must be >= 1 (got %d)" n
    | _ -> Ok ()
  in
  let* crash_sid = opt_field obj "crash_sid" to_int in
  let* () =
    match crash_sid with
    | Some s when s < 0 -> err "field \"crash_sid\" must be >= 0 (got %d)" s
    | _ -> Ok ()
  in
  Ok
    (Run
       {
         id;
         circuit;
         patterns;
         seed;
         engine;
         jobs;
         drop;
         gates;
         deadline_s;
         max_evals;
         crash_sid;
         stream_every;
       })

let parse_request ~limits ~known_circuit line =
  match Json.parse line with
  | Error msg -> err "malformed JSON: %s" msg
  | Ok (Json.Obj _ as obj) -> (
      let id = Json.member "id" obj in
      let* op =
        match Json.member "op" obj with
        | None -> Ok "run"
        | Some v -> to_string ~field:"op" v
      in
      match op with
      | "run" -> parse_run ~limits ~known_circuit obj id
      | "stats" ->
          let* () = check_fields ~op:"stats" ~allowed:[ "op"; "id" ] obj in
          Ok (Stats id)
      | "ping" ->
          let* () = check_fields ~op:"ping" ~allowed:[ "op"; "id" ] obj in
          Ok (Ping id)
      | other -> err "unknown op %S (expected \"run\", \"stats\" or \"ping\")" other)
  | Ok v -> err "request must be a JSON object, got %s" (Json.type_name v)

let request_id = function Run r -> r.id | Stats id -> id | Ping id -> id

(* --- Journal envelopes --------------------------------------------------------- *)

(* The write-ahead journal's replay key: a canonical, client-independent
   re-encoding of a run request.  Everything that shapes the result or
   its accounting is kept (including the already-clamped limits, so a
   replay stops where the original would have); everything tied to the
   original connection is dropped — [id] and [stream_every] belong to a
   client that no longer exists, and [crash_sid] requests are test hooks
   the server never journals.  The envelope re-enters through
   {!parse_request} on recovery, so it can never drift from the schema:
   a field the parser would reject cannot be encoded here. *)
let run_envelope r =
  let opt name conv v = Option.map (fun x -> (name, conv x)) v in
  let fields =
    List.filter_map Fun.id
      [
        Some ("op", Json.String "run");
        Some ("circuit", Json.String r.circuit);
        Some ("patterns", Json.Int r.patterns);
        Some ("seed", Json.Int r.seed);
        Some ("engine", Json.String (engine_name r.engine));
        opt "jobs" (fun n -> Json.Int n) r.jobs;
        Some ("drop", Json.Bool r.drop);
        opt "gates" (fun gs -> Json.List (List.map (fun g -> Json.Int g) gs)) r.gates;
        Some ("deadline_s", Json.Float r.deadline_s);
        opt "max_evals" (fun n -> Json.Int n) r.max_evals;
      ]
  in
  Json.to_string (Json.Obj fields)

(* --- Responses ---------------------------------------------------------------- *)

let response ~line ?id ~status fields =
  let id_field = match id with None -> [] | Some v -> [ ("id", v) ] in
  Json.to_string
    (Json.Obj
       ((("line", Json.Int line) :: id_field)
       @ (("status", Json.String status) :: fields)))

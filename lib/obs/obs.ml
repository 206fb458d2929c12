(* Observability: wall-clock timers and span events with a JSONL
   sink.  See the interface for the design constraints; lines are
   encoded by [Dynmos_json.Json], which also writes non-finite floats as
   the strings "nan"/"inf"/"-inf" so a line never fails to parse. *)

module Json = Dynmos_json.Json

type value = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list
  | Obj of (string * value) list

type event = { ts : float; ev : string; fields : (string * value) list }

let json_line e = Json.to_string (Obj (("ts", Float e.ts) :: ("ev", String e.ev) :: e.fields))

let int_field e k = match List.assoc_opt k e.fields with Some (Int n) -> Some n | _ -> None

(* --- Sinks ----------------------------------------------------------------- *)

type sink = Null | Emit of (event -> unit)

let null_sink = Null

let channel_sink oc =
  let m = Mutex.create () in
  Emit
    (fun e ->
      Mutex.lock m;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock m)
        (fun () ->
          output_string oc (json_line e);
          output_char oc '\n';
          flush oc))

let memory_sink () =
  let m = Mutex.create () in
  let events = ref [] in
  let sink =
    Emit
      (fun e ->
        Mutex.lock m;
        events := e :: !events;
        Mutex.unlock m)
  in
  let fetch () =
    Mutex.lock m;
    let l = List.rev !events in
    Mutex.unlock m;
    l
  in
  (sink, fetch)

(* Ring buffer: long-lived processes (the serve loop) must be able to
   keep a recent-events window without the unbounded list growth of
   [memory_sink].  [next] counts every emission, so the fill level and
   the oldest live slot fall out of one cursor. *)
let bounded_memory_sink ~capacity =
  if capacity <= 0 then
    invalid_arg
      (Printf.sprintf "Obs.bounded_memory_sink: capacity must be positive (got %d)" capacity);
  let m = Mutex.create () in
  let buf = Array.make capacity None in
  let next = ref 0 in
  let sink =
    Emit
      (fun e ->
        Mutex.lock m;
        buf.(!next mod capacity) <- Some e;
        incr next;
        Mutex.unlock m)
  in
  let fetch () =
    Mutex.lock m;
    let live = min !next capacity in
    let first = !next - live in
    let l = List.init live (fun i -> Option.get buf.((first + i) mod capacity)) in
    Mutex.unlock m;
    l
  in
  let total () =
    Mutex.lock m;
    let n = !next in
    Mutex.unlock m;
    n
  in
  (sink, fetch, total)

let tee a b =
  match (a, b) with
  | Null, s | s, Null -> s
  | Emit f, Emit g -> Emit (fun e -> f e; g e)

(* --- Recorders -------------------------------------------------------------- *)

type t = { sink : sink }

let disabled = { sink = Null }
let make sink = { sink }
let enabled t = match t.sink with Null -> false | Emit _ -> true
let now () = Unix.gettimeofday ()

let emit t ~ev fields =
  match t.sink with Null -> () | Emit f -> f { ts = now (); ev; fields }

let span t ~name ?(fields = []) f =
  match t.sink with
  | Null -> f ()
  | Emit _ ->
      let t0 = now () in
      let finally () = emit t ~ev:"span" (("name", String name) :: ("dt_s", Float (now () -. t0)) :: fields) in
      Fun.protect ~finally f

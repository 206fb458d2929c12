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

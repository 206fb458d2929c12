(* Deterministic chaos injection.  See chaos.mli for the contracts.

   Layout mirrors lib/obs: one [armed] branch on the fast path, an array
   slot per point so armed-but-unconfigured points stay lock-free, and a
   mutex only around the configured slow path (PRNG draw + counters),
   because the scheduler and server tap from several domains at once. *)

module Prng = Dynmos_util.Prng

type point =
  | Sched_spawn
  | Sched_task
  | Exec_job
  | Ckpt_write
  | Ckpt_rename
  | Ckpt_fsync
  | Serve_write
  | Serve_read
  | Cache_insert
  | Journal_append
  | Journal_fsync
  | Journal_compact
  | Cache_persist

let points =
  [
    Sched_spawn;
    Sched_task;
    Exec_job;
    Ckpt_write;
    Ckpt_rename;
    Ckpt_fsync;
    Serve_write;
    Serve_read;
    Cache_insert;
    Journal_append;
    Journal_fsync;
    Journal_compact;
    Cache_persist;
  ]

let tag = function
  | Sched_spawn -> 0
  | Sched_task -> 1
  | Exec_job -> 2
  | Ckpt_write -> 3
  | Ckpt_rename -> 4
  | Ckpt_fsync -> 5
  | Serve_write -> 6
  | Serve_read -> 7
  | Cache_insert -> 8
  | Journal_append -> 9
  | Journal_fsync -> 10
  | Journal_compact -> 11
  | Cache_persist -> 12

let n_points = List.length points

let point_name = function
  | Sched_spawn -> "sched.spawn"
  | Sched_task -> "sched.task"
  | Exec_job -> "exec.job"
  | Ckpt_write -> "ckpt.write"
  | Ckpt_rename -> "ckpt.rename"
  | Ckpt_fsync -> "ckpt.fsync"
  | Serve_write -> "serve.write"
  | Serve_read -> "serve.read"
  | Cache_insert -> "cache.insert"
  | Journal_append -> "journal.append"
  | Journal_fsync -> "journal.fsync"
  | Journal_compact -> "journal.compact"
  | Cache_persist -> "cache.persist"

let point_of_name s = List.find_opt (fun p -> point_name p = s) points

type action = Fail_once | Fail_prob of float | Delay_ms of int | Torn_write

type verdict = Pass | Fail | Torn

type slot = {
  action : action;
  prng : Prng.t;
  mutable fired : bool;  (* Fail_once consumed *)
  mutable injections : int;
}

type t = {
  armed : bool;
  seed : int;
  hot : bool array;           (* indexed by [tag]: is this point configured?
                                 The whole fast path — one load and one
                                 branch — so a tap at an unconfigured point
                                 of an armed registry costs exactly what a
                                 disabled registry costs. *)
  slots : slot option array;  (* indexed by [tag] *)
  mu : Mutex.t;
  mutable total : int;
  journal_q : (string * string) Queue.t;
}

let journal_cap = 10_000

let disabled =
  {
    armed = false;
    seed = 0;
    hot = Array.make n_points false;
    slots = [||];
    mu = Mutex.create ();
    total = 0;
    journal_q = Queue.create ();
  }

let enabled t = t.armed

(* Per-point stream derivation: splitmix64-style finalizer over
   (seed, tag) so streams are independent of each other and of any
   engine PRNG seeded from small integers. *)
let point_seed seed p =
  let z = Int64.of_int ((seed * 0x9e3779b9) lxor ((tag p + 1) * 0x85ebca6b)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.to_int (Int64.logand (Int64.logxor z (Int64.shift_right_logical z 31)) 0x3fffffffffffffffL)

let create ?(seed = 0) plan =
  match plan with
  | [] -> disabled
  | _ ->
      let slots = Array.make n_points None in
      List.iter
        (fun (p, action) ->
          slots.(tag p) <-
            Some { action; prng = Prng.create (point_seed seed p); fired = false; injections = 0 })
        plan;
      {
        armed = true;
        seed;
        hot = Array.map Option.is_some slots;
        slots;
        mu = Mutex.create ();
        total = 0;
        journal_q = Queue.create ();
      }

let action_spec = function
  | Fail_once -> "fail_once"
  | Fail_prob p -> Printf.sprintf "fail_prob:%g" p
  | Delay_ms ms -> Printf.sprintf "delay:%d" ms
  | Torn_write -> "torn_write"

let to_spec t =
  if not t.armed then ""
  else
    let items =
      List.filter_map
        (fun p ->
          match t.slots.(tag p) with
          | None -> None
          | Some s -> Some (point_name p ^ "=" ^ action_spec s.action))
        points
    in
    String.concat "," (items @ [ Printf.sprintf "seed=%d" t.seed ])

let seed t = t.seed

let parse_action s =
  match String.index_opt s ':' with
  | None -> (
      match s with
      | "fail_once" -> Ok Fail_once
      | "torn_write" -> Ok Torn_write
      | _ -> Error (Printf.sprintf "unknown chaos action %S" s))
  | Some i -> (
      let name = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match name with
      | "fail_prob" -> (
          match float_of_string_opt arg with
          | Some p when p >= 0.0 && p <= 1.0 -> Ok (Fail_prob p)
          | _ -> Error (Printf.sprintf "fail_prob wants a probability in [0,1], got %S" arg))
      | "delay" -> (
          match int_of_string_opt arg with
          | Some ms when ms >= 0 -> Ok (Delay_ms ms)
          | _ -> Error (Printf.sprintf "delay wants a non-negative millisecond count, got %S" arg))
      | _ -> Error (Printf.sprintf "unknown chaos action %S" s))

let of_spec spec =
  let spec = String.trim spec in
  if spec = "" then Ok disabled
  else
    let items = String.split_on_char ',' spec in
    let rec go seed plan = function
      | [] -> (
          match plan with
          | [] -> Error "chaos spec configures no injection point"
          | _ -> Ok (create ?seed (List.rev plan)))
      | item :: rest -> (
          match String.index_opt item '=' with
          | None -> Error (Printf.sprintf "chaos spec item %S is not point=action or seed=N" item)
          | Some i -> (
              let key = String.trim (String.sub item 0 i) in
              let value = String.trim (String.sub item (i + 1) (String.length item - i - 1)) in
              if key = "seed" then
                match int_of_string_opt value with
                | Some n -> go (Some n) plan rest
                | None -> Error (Printf.sprintf "chaos seed %S is not an integer" value)
              else
                match point_of_name key with
                | None -> Error (Printf.sprintf "unknown chaos injection point %S" key)
                | Some p -> (
                    match parse_action value with
                    | Ok a -> go seed ((p, a) :: plan) rest
                    | Error e -> Error e)))
    in
    go None [] items

exception Injected of point

(* Injected faults surface in user-facing reports (failed-site messages,
   server error responses) via [Printexc.to_string]; name the point
   instead of printing a bare constructor tag. *)
let () =
  Printexc.register_printer (function
    | Injected p -> Some (Printf.sprintf "chaos injection at %s" (point_name p))
    | _ -> None)

let note t p verdict =
  t.total <- t.total + 1;
  if Queue.length t.journal_q >= journal_cap then ignore (Queue.pop t.journal_q);
  Queue.push (point_name p, verdict) t.journal_q

let decide t p =
  if not t.hot.(tag p) then Pass
  else
    match t.slots.(tag p) with
    | None -> Pass
    | Some s ->
        Mutex.lock t.mu;
        let outcome =
          match s.action with
          | Fail_once ->
              if s.fired then `Pass
              else begin
                s.fired <- true;
                `Fail
              end
          | Fail_prob pr -> if Prng.bernoulli s.prng pr then `Fail else `Pass
          | Delay_ms ms -> if ms > 0 then `Delay ms else `Pass
          | Torn_write ->
              if s.fired then `Pass
              else begin
                s.fired <- true;
                `Torn
              end
        in
        (match outcome with
        | `Pass -> ()
        | `Fail ->
            s.injections <- s.injections + 1;
            note t p "fail"
        | `Torn ->
            s.injections <- s.injections + 1;
            note t p "torn"
        | `Delay _ ->
            s.injections <- s.injections + 1;
            note t p "delay");
        Mutex.unlock t.mu;
        (* Sleep outside the lock so a stalled point can't block taps of
           other points (the determinism contract is per-point). *)
        (match outcome with
        | `Delay ms ->
            Unix.sleepf (float_of_int ms /. 1000.0);
            Pass
        | `Pass -> Pass
        | `Fail -> Fail
        | `Torn -> Torn)

let tap t p = match decide t p with Pass -> () | Fail | Torn -> raise (Injected p)

let injected t =
  if not t.armed then 0
  else begin
    Mutex.lock t.mu;
    let n = t.total in
    Mutex.unlock t.mu;
    n
  end

let counts t =
  if not t.armed then []
  else begin
    Mutex.lock t.mu;
    let cs =
      List.filter_map
        (fun p ->
          match t.slots.(tag p) with
          | None -> None
          | Some s -> Some (point_name p, s.injections))
        points
    in
    Mutex.unlock t.mu;
    cs
  end

let journal t =
  Mutex.lock t.mu;
  let entries = List.of_seq (Queue.to_seq t.journal_q) in
  Mutex.unlock t.mu;
  entries

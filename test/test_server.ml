open Dynmos_server
open Dynmos_faultsim
open Dynmos_circuits
module Obs = Dynmos_obs.Obs

(* Tests for the serve loop: the strict JSON parser, request validation,
   and the end-to-end robustness contract — a request can be malformed,
   crashing, over budget or rejected for overload, and the loop answers
   every line exactly once and keeps serving. *)

let check = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* --- Helpers ------------------------------------------------------------------ *)

(* One client session against an existing server, over an in-memory line
   list; returns (stop, responses, lines_read). *)
let run_on t ?drain lines =
  let remaining = ref lines in
  let read = ref 0 in
  let input () =
    match !remaining with
    | [] -> None
    | l :: rest ->
        remaining := rest;
        incr read;
        Some l
  in
  let m = Mutex.create () in
  let out = ref [] in
  let output s =
    Mutex.lock m;
    out := s :: !out;
    Mutex.unlock m
  in
  let drain = match drain with None -> None | Some f -> Some (fun () -> f !read) in
  let stop = Server.serve t ?drain ~input ~output () in
  (stop, List.rev !out, !read)

(* Create a server, run one session, and always join its executor
   domains — domains are a bounded resource and the QCheck fuzz creates
   dozens of servers. *)
let run_server ?config ?drain lines =
  let t = Server.create ?config () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) (fun () -> run_on t ?drain lines)

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "response is not valid JSON: %s (%s)" s e

let field name resp =
  match Json.member name (parse_ok resp) with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name resp

let status resp = match field "status" resp with Json.String s -> s | _ -> "?"
let line_of resp = match field "line" resp with Json.Int n -> n | _ -> -1

(* The response answering input line [n]. *)
let response_for n resps =
  match List.find_opt (fun r -> line_of r = n) resps with
  | Some r -> r
  | None -> Alcotest.failf "no response for line %d" n

(* One executor keeps the classic single-client tests deterministic
   (jobs execute in admission order, so overload/budget assertions are
   exact); the concurrency tests override it. *)
let small_config =
  {
    Server.default_config with
    Server.max_patterns = 4096;
    max_seconds = 30.0;
    executors = 1;
  }

(* --- JSON parser ---------------------------------------------------------------- *)

let test_json_values () =
  let ok s v = Alcotest.(check bool) s true (Json.parse s = Ok v) in
  ok "null" Json.Null;
  ok "true" (Json.Bool true);
  ok "42" (Json.Int 42);
  ok "-17" (Json.Int (-17));
  ok "1.5" (Json.Float 1.5);
  ok "1e3" (Json.Float 1000.0);
  ok "\"a\"" (Json.String "a");
  ok "[1,2]" (Json.List [ Json.Int 1; Json.Int 2 ]);
  ok "{\"a\":1}" (Json.Obj [ ("a", Json.Int 1) ]);
  ok " { \"a\" : [ true , null ] } "
    (Json.Obj [ ("a", Json.List [ Json.Bool true; Json.Null ]) ]);
  (* escapes, including a surrogate pair *)
  check "escape" true
    (Json.parse "\"a\\n\\u0041\\ud83d\\ude00\"" = Ok (Json.String "a\nA\xf0\x9f\x98\x80"))

let test_json_errors () =
  let bad s = check s true (Result.is_error (Json.parse s)) in
  bad "";
  bad "{";
  bad "[1,";
  bad "{\"a\":}";
  bad "tru";
  bad "01";
  bad "1.";
  bad "- 1";
  bad "\"unterminated";
  bad "\"\x00\"";  (* raw NUL in a string *)
  bad "\"\\ud83d\"";  (* lone high surrogate *)
  bad "\"\\udc00\"";  (* lone low surrogate *)
  bad "{\"a\":1,\"a\":2}";  (* duplicate key *)
  check "duplicate key names key and offset" true
    (Json.parse {|{"a":1,"a":2}|} = Error "duplicate key \"a\" at offset 10");
  bad "{} extra";
  bad "nullx";
  (* deep nesting must be a clean error, not a stack overflow *)
  bad (String.make 100000 '[');
  (* huge integer literals degrade to floats; infinity itself parses *)
  check "huge int becomes float" true
    (match Json.parse (String.make 400 '9') with Ok (Json.Float f) -> f = infinity | _ -> false);
  (* 40,000 distinct keys, then either a repeat of the first or a fresh
     one: the duplicate check must stay linear (a scan of the keys
     parsed so far took seconds here). *)
  let wide last =
    let b = Buffer.create 600_000 in
    Buffer.add_char b '{';
    for i = 0 to 39_999 do
      Printf.bprintf b "\"k%d\":%d," i i
    done;
    Printf.bprintf b "\"%s\":0}" last;
    Buffer.contents b
  in
  let timed name ok line =
    let t0 = Unix.gettimeofday () in
    let r = Json.parse line in
    let dt = Unix.gettimeofday () -. t0 in
    check name ok (Result.is_ok r);
    check (Printf.sprintf "%s within 1 s (took %.2f s)" name dt) true (dt < 1.0)
  in
  timed "40k keys, first repeated" false (wide "k0");
  timed "40k distinct keys" true (wide "end")

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("n", Json.Int (-3));
        ("f", Json.Float 0.25);
        ("l", Json.List [ Json.Null; Json.Bool false ]);
        ("o", Json.Obj [ ("k", Json.Int 1) ]);
      ]
  in
  check "print/parse round-trip" true (Json.parse (Json.to_string v) = Ok v)

(* --- Request validation --------------------------------------------------------- *)

let limits =
  { Protocol.max_patterns = 1000; max_seconds = 5.0; max_request_evals = Some 10_000 }

let parse line = Protocol.parse_request ~limits ~known_circuit:Catalog.mem line

let test_request_defaults () =
  match parse {|{"circuit":"carry8"}|} with
  | Ok (Protocol.Run r) ->
      check_s "circuit" "carry8" r.Protocol.circuit;
      check_i "patterns" 256 r.Protocol.patterns;
      check_i "seed" 42 r.Protocol.seed;
      check "engine" true (r.Protocol.engine = `Ppsfp);
      check "jobs" true (r.Protocol.jobs = None);
      check "drop" true r.Protocol.drop;
      check "deadline capped to max_seconds" true (r.Protocol.deadline_s = 5.0);
      check "max_evals defaults to cap" true (r.Protocol.max_evals = Some 10_000)
  | _ -> Alcotest.fail "expected a Run request"

let test_request_caps () =
  (match parse {|{"circuit":"carry8","deadline_s":100.0,"max_evals":1000000}|} with
  | Ok (Protocol.Run r) ->
      check "deadline capped" true (r.Protocol.deadline_s = 5.0);
      check "evals capped" true (r.Protocol.max_evals = Some 10_000)
  | _ -> Alcotest.fail "expected a Run request");
  match parse {|{"circuit":"carry8","patterns":1001}|} with
  | Error msg -> check "pattern cap named" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "over-cap patterns must be rejected"

let test_request_rejections () =
  let rejected s = check s true (Result.is_error (parse s)) in
  rejected {|{"circuit":"carry8","patterns":-1}|};
  rejected {|{"circuit":"unknown-thing"}|};
  rejected {|{"patterns":10}|};  (* missing circuit *)
  rejected {|{"circuit":"carry8","typo_field":1}|};
  rejected {|{"op":"selfdestruct"}|};
  rejected {|{"circuit":"carry8","engine":"warp"}|};
  rejected {|{"circuit":"carry8","engine":"serial","jobs":2}|};  (* jobs is ppsfp's *)
  rejected {|{"circuit":"carry8","crash_sid":-1}|};
  rejected {|{"circuit":"carry8","deadline_s":0}|};
  rejected {|{"circuit":"carry8","max_evals":0}|};
  rejected {|{"circuit":"carry8","gates":"all"}|};
  rejected {|[1,2,3]|};
  rejected {|"just a string"|};
  check "jobs with the default engine accepted" true
    (Result.is_ok (parse {|{"circuit":"carry8","jobs":2}|}))

(* Names removed from the protocol fail by name: a removed engine gets
   an error naming it and listing the two engines ("parallel" and
   "domains", whose kernel ppsfp runs, also name "ppsfp"), and the
   removed "algo" and "group" fields say why they are refused — even
   carrying values the old builds accepted. *)
let test_request_removed_names () =
  let error_of line =
    match parse line with Error m -> m | Ok _ -> Alcotest.failf "must be rejected: %s" line
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun engine ->
      let m = error_of (Printf.sprintf {|{"circuit":"carry8","engine":"%s"}|} engine) in
      check (engine ^ " named") true (contains m (Printf.sprintf "%S" engine));
      check (engine ^ ": survivors listed") true (contains m "expected one of: serial, ppsfp");
      if engine = "parallel" || engine = "domains" then
        check (engine ^ ": ppsfp named") true (contains m {|"ppsfp"|}))
    [ "deductive"; "concurrent"; "parallel"; "domains" ];
  List.iter
    (fun algo ->
      let m = error_of (Printf.sprintf {|{"circuit":"carry8","algo":"%s"}|} algo) in
      check ("algo " ^ algo ^ ": removal explained") true
        (contains m "\"algo\" was removed" && contains m "cone"))
    [ "cone"; "full" ];
  List.iter
    (fun line ->
      check (line ^ ": removal explained") true
        (contains (error_of line) "\"group\" was removed"))
    [
      {|{"circuit":"carry8","engine":"ppsfp","group":16}|};
      {|{"circuit":"carry8","group":8}|};
    ]

(* End-to-end: a request without "engine" runs ppsfp and produces the
   serial engine's coverage, and ppsfp is supervised like serial: a
   crash-injected site is isolated and reported. *)
let test_server_ppsfp_engine () =
  let _, resps, _ =
    run_server ~config:small_config
      [
        {|{"circuit":"rand20","patterns":128,"seed":7,"id":"p"}|};
        {|{"circuit":"rand20","patterns":128,"seed":7,"engine":"serial","id":"q"}|};
        {|{"circuit":"carry8","patterns":64,"engine":"ppsfp","crash_sid":0,"id":"c"}|};
      ]
  in
  check_i "three responses" 3 (List.length resps);
  let crash = response_for 3 resps in
  check_s "crash partial" "partial" (status crash);
  (match field "failed_sites" crash with
  | Json.List [ Json.Obj fields ] ->
      check "failed site 0" true (List.assoc_opt "sid" fields = Some (Json.Int 0))
  | _ -> Alcotest.fail "expected one failed site");
  let p = response_for 1 resps and q = response_for 2 resps in
  check_s "ppsfp ok" "ok" (status p);
  check "the default engine is ppsfp" true (field "engine" p = Json.String "ppsfp");
  check "coverage identical to serial" true
    (field "coverage" p = field "coverage" q);
  check "detected identical to serial" true
    (field "detected" p = field "detected" q)

(* --- End-to-end: the robustness contract ----------------------------------------- *)

(* A valid job's coverage equals a standalone engine run bit-for-bit. *)
let test_server_matches_standalone () =
  let _, resps, _ =
    run_server ~config:small_config
      [ {|{"circuit":"carry8","patterns":64,"seed":42,"id":"x"}|} ]
  in
  check_i "one response" 1 (List.length resps);
  let r = response_for 1 resps in
  check_s "status" "ok" (status r);
  let cov = match field "coverage" r with Json.Float f -> f | Json.Int n -> float_of_int n | _ -> nan in
  let nl = match Catalog.find "carry8" with Ok nl -> nl | Error e -> Alcotest.fail e in
  let u = Faultsim.universe nl in
  let prng = Dynmos_util.Prng.create 42 in
  let pats =
    Faultsim.random_patterns prng
      ~n_inputs:(List.length (Dynmos_netlist.Netlist.inputs nl))
      ~count:64
  in
  let s = Faultsim.run_serial u pats in
  Alcotest.(check (float 0.0)) "coverage identical to standalone" (Faultsim.coverage s) cov

(* A crash-injected request and a past-deadline request are reported
   partial; a subsequent valid request on the same server instance is
   untouched. *)
let test_crash_and_deadline_isolated () =
  let _, resps, _ =
    run_server ~config:small_config
      [
        {|{"circuit":"carry8","patterns":64,"crash_sid":0,"id":"crash"}|};
        {|{"circuit":"rand20","patterns":512,"deadline_s":1e-9,"id":"late"}|};
        {|{"circuit":"carry8","patterns":64,"id":"after"}|};
      ]
  in
  check_i "three responses" 3 (List.length resps);
  let crash = response_for 1 resps in
  check_s "crash partial" "partial" (status crash);
  (match field "cause" crash with
  | Json.String c -> check_s "crash cause" "site_failures" c
  | _ -> Alcotest.fail "missing cause");
  (match field "failed_sites" crash with
  | Json.List [ Json.Obj fields ] ->
      check "failed site 0" true (List.assoc_opt "sid" fields = Some (Json.Int 0))
  | _ -> Alcotest.fail "expected one failed site");
  let late = response_for 2 resps in
  check_s "deadline partial" "partial" (status late);
  (match field "cause" late with
  | Json.String c -> check_s "deadline cause" "deadline" c
  | _ -> Alcotest.fail "missing cause");
  let after = response_for 3 resps in
  check_s "subsequent request ok" "ok" (status after);
  let cov =
    match field "coverage" after with
    | Json.Float f -> f
    | Json.Int n -> float_of_int n
    | _ -> nan
  in
  let nl = match Catalog.find "carry8" with Ok nl -> nl | Error e -> Alcotest.fail e in
  let u = Faultsim.universe nl in
  let prng = Dynmos_util.Prng.create 42 in
  let pats =
    Faultsim.random_patterns prng
      ~n_inputs:(List.length (Dynmos_netlist.Netlist.inputs nl))
      ~count:64
  in
  Alcotest.(check (float 0.0)) "coverage unaffected by earlier crashes"
    (Faultsim.coverage (Faultsim.run_serial u pats))
    cov

(* Queue overflow answers "overloaded" instead of queuing without bound. *)
let test_overload () =
  let slow = {|{"circuit":"rand60","patterns":4096,"drop":false}|} in
  let config = { small_config with Server.queue_capacity = 1 } in
  let _, resps, _ = run_server ~config [ slow; slow; slow; slow; slow; slow ] in
  check_i "every line answered" 6 (List.length resps);
  let counts st = List.length (List.filter (fun r -> status r = st) resps) in
  check "some overloaded" true (counts "overloaded" >= 1);
  check "some completed" true (counts "ok" >= 1);
  check_i "nothing lost" 6 (counts "ok" + counts "partial" + counts "overloaded" + counts "error")

(* A request's [jobs] is clamped to the host's recommended domain
   count before the ppsfp engine sees it: the forwarded faultsim.run
   event reports the clamped request.  carry8's work estimate keeps the
   effective count at 1, so no extra domain starts. *)
let test_jobs_capped () =
  let mem, fetch = Obs.memory_sink () in
  let t = Server.create ~config:small_config ~trace:mem () in
  let _, resps, _ =
    Fun.protect
      ~finally:(fun () -> Server.shutdown t)
      (fun () -> run_on t [ {|{"circuit":"carry8","engine":"ppsfp","jobs":1024}|} ])
  in
  check_s "ok" "ok" (status (response_for 1 resps));
  match List.filter (fun e -> e.Obs.ev = "faultsim.run") (fetch ()) with
  | [ e ] ->
      let get k = Option.get (Obs.int_field e k) in
      check "requested domains within the recommended count" true
        (get "requested_domains" <= Domain.recommended_domain_count ());
      check_i "effective domains" 1 (get "effective_domains")
  | l -> Alcotest.failf "expected one faultsim.run event, got %d" (List.length l)

(* The global eval budget rejects work once spent. *)
let test_global_budget () =
  let config = { small_config with Server.global_max_evals = Some 500 } in
  let job = {|{"circuit":"rand20","patterns":512,"drop":false}|} in
  let _, resps, _ = run_server ~config [ job; job ] in
  check_i "two responses" 2 (List.length resps);
  check_s "first stopped by budget" "partial" (status (response_for 1 resps));
  let second = response_for 2 resps in
  check_s "second rejected" "error" (status second);
  match field "error" second with
  | Json.String msg -> check "rejection named" true (String.length msg > 0)
  | _ -> Alcotest.fail "missing error"

(* Drain: once the flag flips, reading stops, admitted work finishes and
   the loop reports `Drained.  The last read line may race the queue
   closing and be answered "draining" — either way it gets exactly one
   response. *)
let test_drain () =
  let job = {|{"circuit":"carry8","patterns":64}|} in
  let stop, resps, read =
    run_server ~config:small_config ~drain:(fun read -> read >= 2) [ job; job; job; job ]
  in
  check "drained" true (stop = `Drained);
  check "stopped reading" true (read < 4);
  check_i "every read line answered" read (List.length resps);
  check_s "first admitted job finished" "ok" (status (response_for 1 resps));
  List.iter
    (fun r -> check "finished or refused, never dropped" true
        (status r = "ok" || status r = "draining"))
    resps

(* Stats and ping answer immediately with server-global counters. *)
let test_stats_and_ping () =
  let _, resps, _ =
    run_server ~config:small_config
      [
        {|{"op":"ping","id":9}|};
        {|{"circuit":"carry8","patterns":64}|};
        {|not json|};
        {|{"op":"stats"}|};
      ]
  in
  check_i "four responses" 4 (List.length resps);
  check_s "pong" "pong" (status (response_for 1 resps));
  check "ping echoes id" true (field "id" (response_for 1 resps) = Json.Int 9);
  check_s "bad line is error" "error" (status (response_for 3 resps));
  let stats = response_for 4 resps in
  check_s "stats" "stats" (status stats);
  (match field "lines" stats with
  | Json.Int n -> check "lines counted" true (n >= 3)
  | _ -> Alcotest.fail "missing lines");
  match field "rejected_invalid" stats with
  | Json.Int n -> check "invalid counted" true (n >= 1)
  | _ -> Alcotest.fail "missing rejected_invalid"

(* Gate restriction: a sub-universe request matches the full run on the
   corresponding sites, and bad gate ids are named errors.  It shares its
   circuit with the unrestricted request before it but not its fault
   universe: keyed by the circuit's whole universe, it would be answered
   from the full run's cache entry, with the full run's sites. *)
let test_gates_restriction () =
  let restricted = {|{"circuit":"carry8","patterns":64,"gates":[0,1,2]}|} in
  let _, resps, _ =
    run_server ~config:small_config
      [
        {|{"circuit":"carry8","patterns":64}|};
        restricted;
        {|{"circuit":"carry8","gates":[0,99]}|};
        {|{"circuit":"carry8","gates":[1,1]}|};
        restricted;
      ]
  in
  let ok = response_for 2 resps in
  check_s "restricted run ok" "ok" (status ok);
  check "restricted run not served from the full run's entry" true
    (field "cached" ok = Json.Bool false);
  check "restricted run covers 18 sites" true (field "sites" ok = Json.Int 18);
  let detected = match field "detected" ok with Json.Int n -> n | _ -> -1 in
  let nl = match Catalog.find "carry8" with Ok nl -> nl | Error e -> Alcotest.fail e in
  let u = Faultsim.universe nl in
  let ru = Faultsim.restrict_universe u ~gates:[ 0; 1; 2 ] in
  let prng = Dynmos_util.Prng.create 42 in
  let pats =
    Faultsim.random_patterns prng
      ~n_inputs:(List.length (Dynmos_netlist.Netlist.inputs nl))
      ~count:64
  in
  check_i "restricted detections match library run" (Faultsim.n_detected (Faultsim.run_serial ru pats)) detected;
  check_s "out-of-range gate id" "error" (status (response_for 3 resps));
  check_s "duplicate gate id" "error" (status (response_for 4 resps));
  let again = response_for 5 resps in
  check "restricted repeat served from cache" true (field "cached" again = Json.Bool true);
  check "restricted repeat detects the same" true (field "detected" again = field "detected" ok)

(* The obs ring stays bounded however many requests are served. *)
let test_bounded_events () =
  let config = { small_config with Server.events_capacity = 8 } in
  let job = {|{"circuit":"carry8","patterns":8}|} in
  let _, resps, _ = run_server ~config (List.init 20 (fun _ -> job) @ [ {|{"op":"stats"}|} ]) in
  let stats = response_for 21 resps in
  (match field "events_buffered" stats with
  | Json.Int n -> check "ring bounded" true (n <= 8)
  | _ -> Alcotest.fail "missing events_buffered");
  match field "events_total" stats with
  | Json.Int n -> check "totals keep counting" true (n > 8)
  | _ -> Alcotest.fail "missing events_total"

(* A circuit that passes admission but fails catalog lookup must yield a
   structured error response — the old code [failwith]ed inside the
   executor, killing it and hanging every later request.  The lookup
   predicate split on [create] exists exactly to drive this path. *)
let test_lookup_failure_isolated () =
  let t = Server.create ~config:small_config ~known_circuit:(fun _ -> true) () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
  let _, resps, _ =
    run_on t
      [
        {|{"circuit":"ghost-circuit","patterns":16,"id":"g"}|};
        {|{"circuit":"carry8","patterns":16,"id":"ok"}|};
      ]
  in
  check_i "both lines answered" 2 (List.length resps);
  let ghost = response_for 1 resps in
  check_s "lookup failure is an error response" "error" (status ghost);
  (match field "error" ghost with
  | Json.String msg ->
      check "error names the lookup" true
        (String.length msg >= 14 && String.sub msg 0 14 = "circuit lookup")
  | _ -> Alcotest.fail "missing error");
  check_s "executor survives to serve the next request" "ok"
    (status (response_for 2 resps))

(* Idle executors park on a condition variable: a 0.35 s gap between two
   jobs must cost O(jobs) wakeups, not O(gap / poll-interval) — the old
   2 ms sleep-poll would log ~175 iterations here. *)
let test_idle_no_busy_wait () =
  let t = Server.create ~config:small_config () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
  let job = {|{"circuit":"carry8","patterns":16}|} in
  let step = ref 0 in
  let input () =
    incr step;
    match !step with
    | 1 -> Some job
    | 2 ->
        Unix.sleepf 0.35;
        Some job
    | _ -> None
  in
  let m = Mutex.create () in
  let out = ref [] in
  let output s =
    Mutex.lock m;
    out := s :: !out;
    Mutex.unlock m
  in
  let stop = Server.serve t ~input ~output () in
  check "eof" true (stop = `Eof);
  check_i "two responses" 2 (List.length !out);
  let w = Server.exec_wakeups t in
  check (Printf.sprintf "executors idle without spinning (%d wakeups)" w) true (w <= 10)

(* The scheduler itself: per-client FIFO with round-robin across
   clients, cancellation drops queued work, a raising task is counted
   and survived. *)
let test_scheduler () =
  let module S = Parallel_exec.Scheduler in
  let s = S.create ~num_domains:1 () in
  Fun.protect ~finally:(fun () -> S.shutdown s) @@ fun () ->
  let submit client task =
    match S.submit s ~client task with
    | `Ok _ -> ()
    | `Full | `Closed -> Alcotest.fail "submit refused"
  in
  let order_m = Mutex.create () in
  let order = ref [] in
  let record name =
    Mutex.lock order_m;
    order := name :: !order;
    Mutex.unlock order_m
  in
  (* hold the single worker inside a task so submissions below queue up *)
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let gate_open = ref false in
  let started = ref false in
  submit 0 (fun () ->
      Mutex.lock gate_m;
      started := true;
      Condition.broadcast gate_c;
      while not !gate_open do
        Condition.wait gate_c gate_m
      done;
      Mutex.unlock gate_m);
  Mutex.lock gate_m;
  while not !started do
    Condition.wait gate_c gate_m
  done;
  Mutex.unlock gate_m;
  List.iter
    (fun (c, name) -> submit c (fun () -> record name))
    [ (1, "A1"); (1, "A2"); (1, "A3"); (2, "B1") ];
  submit 5 (fun () -> record "C1");
  check_i "cancel drops the queued task" 1 (S.cancel s ~client:5);
  check_i "cancel of an unknown client drops nothing" 0 (S.cancel s ~client:99);
  Mutex.lock gate_m;
  gate_open := true;
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  S.wait_idle s;
  check "round-robin across clients, FIFO within one" true
    (List.rev !order = [ "A1"; "B1"; "A2"; "A3" ]);
  check_i "no crashes yet" 0 (S.crashes s);
  submit 0 (fun () -> failwith "boom");
  S.wait_idle s;
  check_i "crash counted" 1 (S.crashes s);
  submit 0 (fun () -> record "after");
  S.wait_idle s;
  check "pool survives a crashing task" true (List.mem "after" !order)

(* N clients served concurrently against one server: each gets exactly
   its own responses, numbered by its own line counter, with the same
   coverage a standalone run produces. *)
let test_concurrent_clients () =
  let config = { small_config with Server.executors = 2 } in
  let t = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
  let job i k =
    (* distinct seeds per line defeat the result cache so every job is
       real executor work; same seed across clients checks determinism *)
    Printf.sprintf {|{"circuit":"carry8","patterns":64,"seed":%d,"id":"c%d-%d"}|} (100 + k)
      i k
  in
  let n_clients = 3 in
  let results = Array.make n_clients (`Eof, [], 0) in
  let threads =
    List.init n_clients (fun i ->
        Thread.create (fun () -> results.(i) <- run_on t [ job i 0; job i 1; job i 2 ]) ())
  in
  List.iter Thread.join threads;
  let nl = match Catalog.find "carry8" with Ok nl -> nl | Error e -> Alcotest.fail e in
  let u = Faultsim.universe nl in
  let cov_of_seed seed =
    let prng = Dynmos_util.Prng.create seed in
    let pats =
      Faultsim.random_patterns prng
        ~n_inputs:(List.length (Dynmos_netlist.Netlist.inputs nl))
        ~count:64
    in
    Faultsim.coverage (Faultsim.run_serial u pats)
  in
  Array.iter
    (fun (stop, resps, read) ->
      check "client saw eof" true (stop = `Eof);
      check_i "client read all its lines" 3 read;
      check_i "one response per line" 3 (List.length resps);
      check "numbered by the client's own counter" true
        (List.sort compare (List.map line_of resps) = [ 1; 2; 3 ]);
      List.iter
        (fun r ->
          check_s "ok" "ok" (status r);
          let seed_cov =
            match line_of r with 1 -> cov_of_seed 100 | 2 -> cov_of_seed 101 | _ -> cov_of_seed 102
          in
          let cov =
            match field "coverage" r with
            | Json.Float f -> f
            | Json.Int n -> float_of_int n
            | _ -> nan
          in
          Alcotest.(check (float 0.0)) "coverage identical to standalone" seed_cov cov)
        resps)
    results

(* The content-addressed result cache: a repeat of a completed run is
   answered bit-identically — the response line differs only in the
   [cached] flag — with zero new gate evaluations charged anywhere.  The
   job names no engine, so it runs ppsfp, keyed apart from the same
   campaign under serial, with serial's detections. *)
let test_result_cache () =
  let t = Server.create ~config:small_config () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
  let job = {|{"circuit":"rand20","patterns":128,"seed":7,"id":"j"}|} in
  let _, r0, _ = run_on t [ {|{"circuit":"rand20","patterns":128,"seed":7,"engine":"serial"}|} ] in
  let serial = response_for 1 r0 in
  let stats () =
    let _, resps, _ = run_on t [ {|{"op":"stats"}|} ] in
    response_for 1 resps
  in
  let int_field name r =
    match field name r with Json.Int n -> n | _ -> Alcotest.failf "field %s not an int" name
  in
  let _, r1, _ = run_on t [ job ] in
  let s1 = stats () in
  let _, r2, _ = run_on t [ job ] in
  let s2 = stats () in
  let a = response_for 1 r1 in
  let b = response_for 1 r2 in
  check_s "first run ok" "ok" (status a);
  check_s "repeat ok" "ok" (status b);
  check "first run not cached" true (field "cached" a = Json.Bool false);
  check "repeat served from cache" true (field "cached" b = Json.Bool true);
  let strip r =
    match parse_ok r with
    | Json.Obj fields -> List.filter (fun (k, _) -> k <> "cached") fields
    | _ -> Alcotest.fail "response is not an object"
  in
  check "responses identical except the cached flag" true (strip a = strip b);
  check "the default engine is ppsfp" true (field "engine" a = Json.String "ppsfp");
  check "coverage identical to serial" true (field "coverage" a = field "coverage" serial);
  check "detected identical to serial" true (field "detected" a = field "detected" serial);
  check_i "no hits before the repeat" 0 (int_field "cache_hits" s1);
  check_i "the repeat hit the cache" 1 (int_field "cache_hits" s2);
  check_i "a cache hit performs zero new gate evaluations"
    (int_field "global_evals_used" s1)
    (int_field "global_evals_used" s2)

(* stream_every: progress lines flow while the job runs; they are not
   the response — exactly one terminal line still answers the request,
   with the standalone-identical result. *)
let test_streaming_progress () =
  let _, resps, _ =
    run_server ~config:small_config
      [ {|{"circuit":"carry8","patterns":64,"drop":false,"stream_every":16,"id":"s"}|} ]
  in
  let progress = List.filter (fun r -> status r = "progress") resps in
  let terminal = List.filter (fun r -> status r <> "progress") resps in
  check "progress lines streamed" true (List.length progress >= 1);
  check_i "exactly one terminal response" 1 (List.length terminal);
  let t = List.hd terminal in
  check_s "terminal ok" "ok" (status t);
  List.iter
    (fun p ->
      check_i "progress carries the request's line number" 1 (line_of p);
      check "progress echoes the id" true (field "id" p = Json.String "s");
      match (field "units_done" p, field "units_total" p) with
      | Json.Int d, Json.Int tot -> check "progress within range" true (d >= 1 && d <= tot)
      | _ -> Alcotest.fail "progress lacks unit counts")
    progress;
  let nl = match Catalog.find "carry8" with Ok nl -> nl | Error e -> Alcotest.fail e in
  let u = Faultsim.universe nl in
  let prng = Dynmos_util.Prng.create 42 in
  let pats =
    Faultsim.random_patterns prng
      ~n_inputs:(List.length (Dynmos_netlist.Netlist.inputs nl))
      ~count:64
  in
  let cov =
    match field "coverage" t with
    | Json.Float f -> f
    | Json.Int n -> float_of_int n
    | _ -> nan
  in
  Alcotest.(check (float 0.0)) "streamed run matches standalone"
    (Faultsim.coverage (Faultsim.run_serial ~drop:false u pats))
    cov

(* --- QCheck fuzz: arbitrary bytes never crash the loop --------------------------- *)

(* Byte-line generator biased toward the nasty cases: truncated JSON,
   valid-but-wrong schemas, huge numbers, NULs, deep nesting, plus pure
   random bytes. *)
let fuzz_line =
  let open QCheck2.Gen in
  oneof
    [
      (* arbitrary bytes (newline-free: the reader splits on newlines) *)
      map
        (fun s -> String.map (fun c -> if c = '\n' then ' ' else c) s)
        (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 80));
      (* truncated / mutated valid request *)
      (let base = {|{"circuit":"carry8","patterns":16,"seed":7}|} in
       map (fun n -> String.sub base 0 (min n (String.length base))) (int_range 0 43));
      (* structurally valid, semantically hostile *)
      oneofl
        [
          {|{"circuit":"carry8","patterns":99999999999999999999999999}|};
          {|{"circuit":"carry8","patterns":1e308}|};
          {|{"circuit":"carry8","seed":null}|};
          {|{"circuit":"carry8","gates":[-1]}|};
          {|{"circuit":"carry8","crash_sid":123456}|};
          {|{"op":"run"}|};
          {|{"op":"stats","junk":1}|};
          {|null|};
          {|0|};
          "\x00\x01\x02";
          String.make 200 '[';
          String.make 200 '{';
          {|{"circuit":"\ud800"}|};
        ];
    ]

let qcheck_fuzz_serve =
  QCheck2.Test.make ~name:"serve loop: one response per line, never a crash" ~count:60
    QCheck2.Gen.(list_size (int_range 0 12) fuzz_line)
    (fun lines ->
      let config =
        { Server.default_config with Server.max_patterns = 64; max_seconds = 5.0 }
      in
      let _, resps, read = run_server ~config lines in
      (* every read line answered exactly once... *)
      if read <> List.length lines then QCheck2.Test.fail_report "reader dropped lines";
      if List.length resps <> List.length lines then
        QCheck2.Test.fail_reportf "%d lines but %d responses" (List.length lines)
          (List.length resps);
      (* ...with valid JSON carrying the right line numbers *)
      let lines_answered =
        List.map
          (fun r ->
            match Json.member "line" (parse_ok r) with
            | Some (Json.Int n) -> n
            | _ -> QCheck2.Test.fail_report "response lacks a line number")
          resps
      in
      let sorted = List.sort compare lines_answered in
      if sorted <> List.init (List.length lines) (fun i -> i + 1) then
        QCheck2.Test.fail_report "line numbers are not exactly 1..n";
      true)

(* The same contract under interleaving: three clients fuzz one server
   concurrently, and each still gets exactly one terminal response per
   line, numbered by its own counter. *)
let qcheck_fuzz_concurrent =
  QCheck2.Test.make
    ~name:"concurrent clients: one terminal response per line per client" ~count:25
    QCheck2.Gen.(list_repeat 3 (list_size (int_range 0 8) fuzz_line))
    (fun client_lines ->
      let config =
        {
          Server.default_config with
          Server.max_patterns = 64;
          max_seconds = 5.0;
          executors = 2;
        }
      in
      let t = Server.create ~config () in
      Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
      let n = List.length client_lines in
      let results = Array.make n ([], 0) in
      let threads =
        List.mapi
          (fun i lines ->
            Thread.create
              (fun () ->
                let _, resps, read = run_on t lines in
                results.(i) <- (resps, read))
              ())
          client_lines
      in
      List.iter Thread.join threads;
      List.iteri
        (fun i lines ->
          let resps, read = results.(i) in
          let terminal = List.filter (fun r -> status r <> "progress") resps in
          if read <> List.length lines then
            QCheck2.Test.fail_reportf "client %d: reader dropped lines" i;
          if List.length terminal <> List.length lines then
            QCheck2.Test.fail_reportf "client %d: %d lines but %d terminal responses" i
              (List.length lines) (List.length terminal);
          let sorted = List.sort compare (List.map line_of terminal) in
          if sorted <> List.init (List.length lines) (fun k -> k + 1) then
            QCheck2.Test.fail_reportf "client %d: line numbers are not exactly 1..n" i)
        client_lines;
      true)

(* --- Robustness: sockets, idle reap, chaos ------------------------------------- *)

(* Run [serve_socket] on its own thread against a fresh temp path and
   hand the caller a connector; always drains and joins. *)
let with_socket_server config f =
  let path = Filename.temp_file "dynmos_sock" ".s" in
  Sys.remove path;
  let t = Server.create ~config () in
  let srv = Thread.create (fun () -> try Server.serve_socket t path with _ -> ()) () in
  let rec wait n =
    if n = 0 then Alcotest.fail "socket never appeared"
    else if Sys.file_exists path then ()
    else begin
      Thread.delay 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain t;
      Thread.join srv;
      Server.shutdown t;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f t connect)

let send fd line =
  let line = line ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line) : int)

let recv_line fd =
  let buf = Bytes.create 4096 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  match Unix.read fd buf 0 4096 with
  | exception Unix.Unix_error _ -> None
  | 0 -> None
  | n -> Some (String.trim (Bytes.sub_string buf 0 n))

(* A client that disconnects before its response is written must cost a
   cancelled session, never the process: the response write hits the
   half-closed socket and, with SIGPIPE ignored, fails as EPIPE into
   the client-gone path.  Without the fix this whole test binary dies
   of SIGPIPE. *)
let test_sigpipe_half_closed_socket () =
  with_socket_server small_config @@ fun _t connect ->
  let fd1 = connect () in
  send fd1 {|{"circuit":"rand20","patterns":512,"drop":false}|};
  Thread.delay 0.05;
  (* vanish while the job is still running *)
  Unix.close fd1;
  (* the server must still be alive and serving new connections *)
  let fd2 = connect () in
  send fd2 {|{"op":"ping"}|};
  (match recv_line fd2 with
  | Some resp -> check_s "server survived the half-closed write" "pong" (status resp)
  | None -> Alcotest.fail "no response from the server after a half-closed write");
  Unix.close fd2

(* A connection that goes silent with nothing in flight is reaped after
   [idle_timeout_s]: our end sees EOF, the counter ticks, and a live
   connection that keeps talking is not reaped. *)
let test_idle_reap () =
  let config = { small_config with Server.idle_timeout_s = Some 0.15 } in
  with_socket_server config @@ fun t connect ->
  let fd = connect () in
  (* send nothing: the reaper must close this connection *)
  (match recv_line fd with
  | None -> ()
  | Some l -> Alcotest.failf "expected EOF from the idle reaper, got %S" l);
  Unix.close fd;
  (match List.assoc "idle_reaps" (Server.stats_line t) with
  | Json.Int n -> check "idle reap counted" true (n >= 1)
  | _ -> Alcotest.fail "stats lack idle_reaps");
  (* a talking client outlives many idle windows *)
  let fd2 = connect () in
  send fd2 {|{"op":"ping"}|};
  (match recv_line fd2 with
  | Some resp -> check_s "active client served" "pong" (status resp)
  | None -> Alcotest.fail "active client was reaped");
  Unix.close fd2

(* --- Line limits on both transports ---------------------------------------------- *)

let lines_of s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* One stdin-shaped session: [serve_channels] reads a pipe that a writer
   thread fills with [input] and then closes; returns the response
   lines. *)
let serve_pipe t input =
  let r, w = Unix.pipe ~cloexec:true () in
  let writer =
    Thread.create
      (fun () ->
        (try ignore (Unix.write_substring w input 0 (String.length input) : int)
         with Unix.Unix_error _ -> ());
        Unix.close w)
      ()
  in
  let out = Filename.temp_file "dynmos_serve" ".out" in
  let ic = Unix.in_channel_of_descr r in
  let oc = open_out out in
  ignore (Server.serve_channels t ic oc : Server.stop);
  Thread.join writer;
  close_in ic;
  close_out oc;
  let resps = lines_of (In_channel.with_open_bin out In_channel.input_all) in
  Sys.remove out;
  resps

(* One socket connection: a writer thread sends [input] and half-closes,
   while this thread reads responses to EOF. *)
let serve_conn connect input =
  let fd = connect () in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.0;
  let writer =
    Thread.create
      (fun () ->
        (try ignore (Unix.write_substring fd input 0 (String.length input) : int)
         with Unix.Unix_error _ -> ());
        try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
      ()
  in
  let ic = Unix.in_channel_of_descr fd in
  let resps = try lines_of (In_channel.input_all ic) with Sys_error _ -> [] in
  Thread.join writer;
  close_in ic;
  resps

let limits_config = { small_config with Server.max_line_bytes = 64 }

(* Five lines around the bound: exactly [max_line_bytes] bytes, one byte
   over, a ping after the over-long line, an empty line, and an
   unterminated last line before EOF. *)
let bound_input =
  let max = limits_config.Server.max_line_bytes in
  String.concat "\n"
    [
      String.make max 'x';
      String.make (max + 1) 'x';
      {|{"op":"ping"}|};
      "";
      {|{"op":"ping","id":"tail"}|};
    ]

let check_line_bound transport resps =
  let max = limits_config.Server.max_line_bytes in
  let name s = transport ^ ": " ^ s in
  let error n =
    match field "error" (response_for n resps) with Json.String s -> s | _ -> ""
  in
  let malformed s = String.starts_with ~prefix:"malformed JSON" s in
  check_i (name "one response per line") 5 (List.length resps);
  check (name "a line of max_line_bytes reaches the parser") true (malformed (error 1));
  check_s (name "one byte over is refused by length")
    (Printf.sprintf "request line exceeds %d bytes" max)
    (error 2);
  check_s (name "the next line keeps its number") "pong" (status (response_for 3 resps));
  check (name "an empty line is malformed JSON") true (malformed (error 4));
  check_s (name "an unterminated last line is answered") "pong"
    (status (response_for 5 resps));
  check (name "tail id echoed") true (field "id" (response_for 5 resps) = Json.String "tail")

let test_line_bound_stdin () =
  let t = Server.create ~config:limits_config () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
  check_line_bound "stdin" (serve_pipe t bound_input)

let test_line_bound_socket () =
  with_socket_server limits_config @@ fun _t connect ->
  check_line_bound "socket" (serve_conn connect bound_input)

(* An over-long line is never buffered whole: a line of 64 x
   [max_line_bytes] with its only newline at the end grows the peak
   major heap by less than 8 x [max_line_bytes] on either transport,
   still gets the length error on line 1, and the request after it is
   answered.  The peak is process-wide, so this group runs first. *)
let test_long_line_bounded () =
  let config = { small_config with Server.max_line_bytes = 262_144 } in
  let max = config.Server.max_line_bytes in
  let input = String.make (64 * max) 'x' ^ "\n" ^ {|{"op":"ping"}|} ^ "\n" in
  let warm_up = {|{"op":"ping"}|} ^ "\n" in
  let top () =
    Gc.minor ();
    (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)
  in
  let check_bounded transport session =
    ignore (session warm_up : string list);
    let before = top () in
    let resps = session input in
    let grew = top () - before in
    let name s = transport ^ ": " ^ s in
    check_i (name "two responses") 2 (List.length resps);
    check (name "length error on line 1") true
      (field "error" (response_for 1 resps)
      = Json.String (Printf.sprintf "request line exceeds %d bytes" max));
    check_s (name "the next request answered") "pong" (status (response_for 2 resps));
    check (name (Printf.sprintf "peak heap grew %d bytes (bound %d)" grew (8 * max))) true
      (grew < 8 * max)
  in
  (let t = Server.create ~config () in
   Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
   check_bounded "stdin" (serve_pipe t));
  with_socket_server config @@ fun _t connect -> check_bounded "socket" (serve_conn connect)

(* A drain frees a session parked on an input that stays open (stdin
   under the CLI's SIGTERM): [serve_channels] answers the admitted job
   and returns [`Drained] while the writer still holds the pipe. *)
let test_drain_open_pipe () =
  let t = Server.create ~config:small_config () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
  let r, w = Unix.pipe ~cloexec:true () in
  let req = {|{"circuit":"carry8","patterns":64}|} ^ "\n" in
  ignore (Unix.write_substring w req 0 (String.length req) : int);
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let ic = Unix.in_channel_of_descr r and oc = Unix.out_channel_of_descr out_w in
  let stop = ref `Eof in
  let session = Thread.create (fun () -> stop := Server.serve_channels t ic oc) () in
  let out_ic = Unix.in_channel_of_descr out_r in
  let resp = input_line out_ic in
  Server.request_drain t;
  Thread.join session;
  check_s "admitted job answered" "ok" (status resp);
  check "drained with the input still open" true (!stop = `Drained);
  List.iter close_in [ ic; out_ic ];
  close_out oc;
  Unix.close w

(* A drain with a job in flight on a connection: the connection is
   half-closed, the job is still answered on it, and only then does the
   server close it. *)
let test_socket_drain_answers () =
  with_socket_server small_config @@ fun t connect ->
  let fd = connect () in
  send fd {|{"circuit":"rand20","patterns":512,"drop":false}|};
  let rec admitted n =
    match List.assoc "accepted" (Server.stats_line t) with
    | Json.Int 1 -> ()
    | _ when n = 0 -> Alcotest.fail "the job was never admitted"
    | _ ->
        Thread.delay 0.005;
        admitted (n - 1)
  in
  admitted 2000;
  Server.request_drain t;
  (match recv_line fd with
  | Some resp -> check_s "admitted job answered across the drain" "ok" (status resp)
  | None -> Alcotest.fail "no response after the drain");
  check "connection closed once answered" true (recv_line fd = None);
  Unix.close fd

(* Serve under a chaos schedule that kills executor domains and drops
   cache inserts: every request line still gets exactly one terminal
   response, and the watchdog keeps the pool serving. *)
let test_serve_under_chaos () =
  let chaos =
    match Dynmos_chaos.Chaos.of_spec "sched.task=fail_prob:0.5,cache.insert=fail_once,seed=11" with
    | Ok c -> c
    | Error e -> Alcotest.failf "chaos spec: %s" e
  in
  let config =
    { Server.default_config with Server.max_patterns = 64; executors = 2; chaos }
  in
  let t = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) @@ fun () ->
  let job = {|{"circuit":"carry8","patterns":64}|} in
  let lines = List.init 8 (fun _ -> job) in
  let _, resps, _ = run_on t lines in
  check_i "one terminal response per line" 8 (List.length resps);
  List.iteri (fun i _ -> check_s "every job completed" "ok" (status (response_for (i + 1) resps))) lines;
  check "chaos actually fired" true (Dynmos_chaos.Chaos.injected chaos > 0);
  match List.assoc "exec_respawns" (Server.stats_line t) with
  | Json.Int n -> check "watchdog respawned executors" true (n > 0)
  | _ -> Alcotest.fail "stats lack exec_respawns"

(* --- Suite ------------------------------------------------------------------------ *)

let () =
  Alcotest.run "dynmos server"
    [
      ( "limits",
        [
          Alcotest.test_case "over-long line held to the bound" `Quick test_long_line_bounded;
          Alcotest.test_case "line bound on stdin" `Quick test_line_bound_stdin;
          Alcotest.test_case "line bound on a socket" `Quick test_line_bound_socket;
        ] );
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "defaults" `Quick test_request_defaults;
          Alcotest.test_case "caps applied" `Quick test_request_caps;
          Alcotest.test_case "rejections" `Quick test_request_rejections;
          Alcotest.test_case "removed names fail by name" `Quick test_request_removed_names;
        ] );
      ( "serve",
        [
          Alcotest.test_case "matches standalone run" `Quick test_server_matches_standalone;
          Alcotest.test_case "ppsfp engine end-to-end" `Quick test_server_ppsfp_engine;
          Alcotest.test_case "crash and deadline isolated" `Quick
            test_crash_and_deadline_isolated;
          Alcotest.test_case "overload backpressure" `Quick test_overload;
          Alcotest.test_case "jobs capped at recommended domains" `Quick test_jobs_capped;
          Alcotest.test_case "global budget" `Quick test_global_budget;
          Alcotest.test_case "graceful drain" `Quick test_drain;
          Alcotest.test_case "stats and ping" `Quick test_stats_and_ping;
          Alcotest.test_case "gate restriction" `Quick test_gates_restriction;
          Alcotest.test_case "bounded event ring" `Quick test_bounded_events;
          Alcotest.test_case "lookup failure isolated" `Quick test_lookup_failure_isolated;
          Alcotest.test_case "no idle busy-wait" `Quick test_idle_no_busy_wait;
          Alcotest.test_case "streaming progress" `Quick test_streaming_progress;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "scheduler fairness, cancel, crash" `Quick test_scheduler;
          Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
          Alcotest.test_case "result cache" `Quick test_result_cache;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "sigpipe on a half-closed socket" `Quick
            test_sigpipe_half_closed_socket;
          Alcotest.test_case "idle connections reaped" `Quick test_idle_reap;
          Alcotest.test_case "drain frees a reader on an open pipe" `Quick
            test_drain_open_pipe;
          Alcotest.test_case "socket drain answers in-flight work" `Quick
            test_socket_drain_answers;
          Alcotest.test_case "serve under chaos" `Quick test_serve_under_chaos;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_fuzz_serve;
          QCheck_alcotest.to_alcotest qcheck_fuzz_concurrent;
        ] );
    ]

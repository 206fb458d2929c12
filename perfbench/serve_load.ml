(* The serve workloads: closed-loop clients on the socket path of
   [dynmos serve --socket] ([Server.serve_socket]), with the server
   running in this process on its own thread. *)

open Dynmos_faultsim
open Dynmos_server
open Measure

let clients = 2

type reply = {
  req : Req.t;
  t0 : float;  (** request sent *)
  t1 : float;  (** terminal response received *)
  status : string;
  cached : bool;
  detected : int;
  sites : int;
  dt_s : float;  (** the server's engine time for the job *)
}

let latency r = r.t1 -. r.t0

(* --- Server ----------------------------------------------------------------- *)

type harness = { srv : Server.t; th : Thread.t; sock : string; data_dir : string option }

(* The server's default volatile config (2 executors, a 256-entry result
   cache), with [data_dir] set for the durable workload. *)
let start ~sock ~data_dir =
  (try Sys.remove sock with Sys_error _ -> ());
  Option.iter (fun d -> Unix.mkdir d 0o755) data_dir;
  let srv = Server.create ~config:{ Server.default_config with Server.data_dir } () in
  let th =
    Thread.create
      (fun () ->
        try Server.serve_socket srv sock
        with e -> prerr_endline ("serve_socket: " ^ Printexc.to_string e))
      ()
  in
  { srv; th; sock; data_dir }

let stop h =
  Server.request_drain h.srv;
  Thread.join h.th;
  Server.shutdown h.srv;
  Option.iter Layers.remove_tree h.data_dir

let counter stats key = match List.assoc_opt key stats with Some (Json.Int n) -> n | _ -> 0
let stat h key = counter (Server.stats_line h.srv) key

(* --- Clients ---------------------------------------------------------------- *)

(* Connect, retrying while the server thread is still binding. *)
let connect sock =
  let deadline = now () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
        (* a wedged server fails the op instead of hanging the run *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
        fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now () < deadline ->
        Unix.close fd;
        Thread.delay 0.001;
        go ()
  in
  go ()

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let parse_reply req ~id ~t0 ~t1 line =
  let failed status = { req; t0; t1; status; cached = false; detected = -1; sites = -1; dt_s = 0. } in
  match Json.parse line with
  | Error e -> failed ("unparseable: " ^ e)
  | Ok j -> (
      let get k = Json.member k j in
      match (get "id", get "status") with
      | Some (Json.Int id'), Some (Json.String status) when id' = id -> (
          match (get "cached", get "detected", get "sites", get "dt_s") with
          | Some (Json.Bool cached), Some (Json.Int detected), Some (Json.Int sites), Some dt ->
              let dt_s = match dt with Json.Float f -> f | Json.Int n -> float_of_int n | _ -> 0. in
              { req; t0; t1; status; cached; detected; sites; dt_s }
          | _ -> failed status)
      | _ -> failed ("unexpected response: " ^ line))

(* Run [clients] closed-loop clients, each on its own connection: client
   [i] sends [next i]'s request, waits for the terminal response, and
   repeats until [next i] is [None].  Each request is one top-level span
   from send to response. *)
let run_clients tr h ~n ~next =
  let out = Array.make n [] in
  let body i =
    let fd = connect h.sock in
    let ic = Unix.in_channel_of_descr fd in
    let rec loop k acc =
      match next i with
      | None -> acc
      | Some req ->
          let id = (i * 1_000_000) + k in
          let line = Req.line ~id req ^ "\n" in
          let t0 = now () in
          write_all fd line 0;
          let resp = try Some (input_line ic) with End_of_file | Sys_error _ -> None in
          let t1 = now () in
          if Trace.on tr then
            Trace.record tr ~id:(Trace.fresh tr) ~parent:0 ~name:"op.request" ~t0 ~t1;
          (match resp with
          | Some line -> loop (k + 1) (parse_reply req ~id ~t0 ~t1 line :: acc)
          | None -> parse_reply req ~id ~t0 ~t1 "" :: acc)
    in
    out.(i) <- List.rev (loop 0 []);
    close_in ic
  in
  let ths = List.init n (fun i -> Thread.create body i) in
  List.iter Thread.join ths;
  Array.to_list out |> List.concat

(* Client [i]'s next request from [reqs] until [deadline]. *)
let until deadline f i = if now () >= deadline then None else Some (f i)

(* Each client walks its own list once. *)
let each_once lists =
  let rest = Array.of_list lists in
  fun i ->
    match rest.(i) with
    | [] -> None
    | r :: tl ->
        rest.(i) <- tl;
        Some r

(* --- Workloads -------------------------------------------------------------- *)

type spec = {
  data_dir : bool;
  kinds : Layers.kind list;  (** job kinds with their share of the timed ops *)
  warmup : Req.t list;  (** sent once at set-up, split across the clients *)
  timed : deadline:float -> int -> Req.t option;
      (** client [i]'s next timed request (a fresh generator per call of
          [timed ~deadline]) *)
  expect_cached : bool;
  setup_reps : int;  (** set-ups per run: their median is [setup_s] *)
}

(* serve-cached: 26 distinct jobs, two seeds each of 13 kinds (four
   circuits at three pattern counts, plus rand60@2048), all computed
   during warm-up; every timed request is a cache hit, so the kernel is
   bypassed.  An odd number of equally sent kinds puts the median inside
   one kind's latency cluster instead of in the gap between two, where
   it would jump from run to run. *)
let cached_spec seed =
  let fresh = Req.seed_stream seed in
  let kinds =
    List.concat_map
      (fun circuit -> List.map (fun patterns -> (circuit, patterns)) [ 256; 1024; 4096 ])
      [ "rand60"; "rand1k"; "carry16"; "c17-domino" ]
    @ [ ("rand60", 2048) ]
  in
  let reqs =
    List.concat_map
      (fun (circuit, patterns) -> List.init 2 (fun _ -> { Req.circuit; patterns; seed = fresh () }))
      kinds
  in
  (* a seeded order, walked round-robin, so every run sends each job
     equally often *)
  let arr = Req.shuffle (Dynmos_util.Prng.create (seed lxor 0x5eed)) reqs in
  let n = Array.length arr in
  {
    data_dir = false;
    kinds = List.map (fun req -> { Layers.req; weight = 1 }) reqs;
    warmup = reqs;
    timed =
      (fun ~deadline ->
        let pos = Array.init clients (fun i -> i * n / clients) in
        until deadline (fun i ->
            let r = arr.(pos.(i) mod n) in
            pos.(i) <- pos.(i) + 1;
            r));
    expect_cached = true;
    setup_reps = 5;
  }

(* serve-cold-durable: every request carries a fresh seed, so all miss,
   and every miss is journaled, persisted to the cache directory and,
   at 4096 patterns (the server's checkpoint threshold), checkpointed.
   Each block of 20 holds 14 x rand1k@256, 4 x rand60@256 and
   2 x rand60@4096 in a seeded order, so both latency percentiles fall
   inside the rand1k cluster (kernel plus durable writes).  With most
   requests small instead, the median is a small request whose latency
   is mostly fsync waits on the disk holding the data dir, and that
   moved 3.4-8.6 ms between runs of the same code. *)
let cold_spec seed =
  let fresh = Req.seed_stream seed in
  let fresh_m = Mutex.create () in
  let fresh () =
    Mutex.lock fresh_m;
    let s = fresh () in
    Mutex.unlock fresh_m;
    s
  in
  let block =
    List.init 14 (fun _ -> ("rand1k", 256))
    @ List.init 4 (fun _ -> ("rand60", 256))
    @ List.init 2 (fun _ -> ("rand60", 4096))
  in
  let kind (circuit, patterns) weight = { Layers.req = { Req.circuit; patterns; seed }; weight } in
  {
    data_dir = true;
    kinds = [ kind ("rand1k", 256) 14; kind ("rand60", 256) 4; kind ("rand60", 4096) 2 ];
    warmup =
      List.map
        (fun (circuit, patterns) -> { Req.circuit; patterns; seed = fresh () })
        [ ("rand60", 256); ("rand1k", 256); ("rand60", 4096) ];
    timed =
      (fun ~deadline ->
        let gens = Array.init clients (fun i -> Dynmos_util.Prng.create (seed + 7919 * (i + 1))) in
        let pending = Array.make clients [] in
        until deadline (fun i ->
            if pending.(i) = [] then pending.(i) <- Array.to_list (Req.shuffle gens.(i) block);
            match pending.(i) with
            | (circuit, patterns) :: tl ->
                pending.(i) <- tl;
                { Req.circuit; patterns; seed = fresh () }
            | [] -> assert false));
    expect_cached = false;
    setup_reps = 9;
  }

let spec_of_name name seed =
  match name with
  | "serve-cached" -> cached_spec seed
  | "serve-cold-durable" -> cold_spec seed
  | _ -> invalid_arg name

(* Split [reqs] round-robin across the clients. *)
let deal reqs =
  List.init clients (fun i -> List.filteri (fun k _ -> k mod clients = i) reqs)

(* --- Checks ------------------------------------------------------------------ *)

(* Reference results: a direct [run_ppsfp] on the same circuit, patterns
   and seed, once per distinct job, as (detected, sites).  The runs are
   shared between two domains; they sit outside every timed region. *)
let reference reqs =
  let jobs = Array.of_list (List.sort_uniq compare reqs) in
  (* universes are built here, before the domains share them *)
  Array.iter (fun r -> ignore (Req.universe r.Req.circuit : Faultsim.universe)) jobs;
  let results = Array.make (Array.length jobs) (0, 0) in
  let work d =
    Array.iteri
      (fun k r ->
        if k mod 2 = d then begin
          let u = Req.universe r.Req.circuit in
          results.(k) <- (Faultsim.n_detected (Faultsim.run_ppsfp u (Req.patterns u r)), Faultsim.n_sites u)
        end)
      jobs
  in
  let other = Domain.spawn (fun () -> work 1) in
  work 0;
  Domain.join other;
  let memo = Hashtbl.create (Array.length jobs) in
  Array.iteri (fun k r -> Hashtbl.replace memo r results.(k)) jobs;
  Hashtbl.find memo

(* An op fails when its response is not "ok" (error, partial,
   overloaded, draining, or none at all), or when its detection count,
   site count or [cached] flag disagrees with the reference. *)
let check expected ~cached rs =
  List.filter
    (fun r ->
      let detected, sites = expected r.req in
      r.status <> "ok" || r.detected <> detected || r.sites <> sites || r.cached <> cached)
    rs

(* --- Runs -------------------------------------------------------------------- *)

type timed = {
  replies : reply list;
  wall : float;
  coverage : float;  (** top-level spans / (clients x wall), traced loops only *)
  hits : int;
  misses : int;
  wakeups : int;
  fsyncs : int;
}

let timed_loop tr h spec ~seconds =
  Gc.full_major ();
  let before = Server.stats_line h.srv in
  let t0 = now () in
  let replies = run_clients tr h ~n:clients ~next:(spec.timed ~deadline:(t0 +. seconds)) in
  let t1 = now () in
  let wall = t1 -. t0 in
  let coverage = Trace.top_level_within tr ~t0 ~t1 /. (float_of_int clients *. wall) in
  let after = Server.stats_line h.srv in
  let delta key = counter after key - counter before key in
  {
    replies;
    wall;
    coverage;
    hits = delta "cache_hits";
    misses = delta "cache_misses";
    wakeups = delta "exec_wakeups";
    fsyncs = delta "journal_fsyncs";
  }

(* Latencies (ms) per job kind, for the report. *)
let group_latencies rs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let k = Req.label r.req in
      Hashtbl.replace tbl k ((latency r *. 1e3) :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    rs;
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

let ok_count rs = List.length (List.filter (fun r -> r.status = "ok") rs)

let e2e_metrics ~setups t =
  [ metric "setup_s" "s" (median setups) ~note:(Printf.sprintf "median of %d set-ups" (List.length setups)) ]
  @ latency_metrics (List.map latency t.replies)
  @ [
      metric "throughput_rps" "1/s"
        (float_of_int (ok_count t.replies) /. t.wall)
        ~note:(Printf.sprintf "%d ok responses in %.2f s, %d clients" (ok_count t.replies) t.wall clients);
    ]

let run ~out_dir ~workload ~seed ~seconds ~traced =
  let spec = spec_of_name workload seed in
  let pid = Unix.getpid () in
  let sock = Filename.concat out_dir (Printf.sprintf "%d.sock" pid) in
  let data_dir k =
    if spec.data_dir then Some (Filename.concat out_dir (Printf.sprintf "%d-data-%d" pid k)) else None
  in
  let off = Trace.create false in
  (* Set-up: [Server.create] + warm-up.  The first server is the one
     measured; the rest of the set-ups that [setup_s] takes its median
     from run after the timed loop, so the peak resident set is that of
     one server, as in a real serve process. *)
  let setup k =
    Gc.full_major ();
    let (h, warm), dt =
      time (fun () ->
          let h = start ~sock ~data_dir:(data_dir k) in
          (h, run_clients off h ~n:clients ~next:(each_once (deal spec.warmup))))
    in
    (h, warm, dt)
  in
  let h, warm, setup1 = setup 1 in
  let untraced = timed_loop off h spec ~seconds in
  List.iter
    (fun (label, ls) ->
      Printf.printf "  %-16s n=%-5d latency p50 %.3f ms\n" label (List.length ls) (median ls))
    (group_latencies untraced.replies);
  let rss = peak_rss_mb () in
  let tr = Trace.create traced in
  let traced_run = if traced then Some (timed_loop tr h spec ~seconds) else None in
  (* The durable server's hit path: the last 20 jobs the traced loop
     completed, which are still in the in-memory cache, sent again. *)
  let repeats =
    match traced_run with
    | Some t when not spec.expect_cached ->
        let ok = List.filter (fun r -> r.status = "ok") t.replies in
        let last = List.filteri (fun k _ -> k >= List.length ok - 20) ok in
        run_clients off h ~n:1 ~next:(each_once [ List.map (fun r -> r.req) last ])
    | _ -> []
  in
  stop h;
  let more_setups =
    (* the traced run reports no set-up time *)
    if traced then []
    else
      List.init (spec.setup_reps - 1) (fun k ->
          let h, warm, dt = setup (k + 2) in
          stop h;
          (warm, dt))
  in
  let warm = warm @ List.concat_map fst more_setups in
  let setup_times = setup1 :: List.map snd more_setups in
  (* Checks, outside every timed region. *)
  let all_timed =
    untraced.replies @ match traced_run with Some t -> t.replies | None -> []
  in
  let expected = reference (List.map (fun r -> r.req) (warm @ all_timed)) in
  let bad = check expected ~cached:spec.expect_cached all_timed in
  let bad_setup = check expected ~cached:false warm @ check expected ~cached:true repeats in
  List.iter
    (fun r ->
      Printf.printf "  FAILED %s seed=%d: status=%s cached=%b detected=%d\n" (Req.label r.req)
        r.req.Req.seed r.status r.cached r.detected)
    (bad @ bad_setup);
  let e2e = e2e_metrics ~setups:setup_times untraced @ [ metric "peak_rss_mb" "MB" rss ~note:"VmHWM after the timed loop" ] in
  let layers =
    match traced_run with
    | None -> []
    | Some t ->
        let traced_p50 = median (List.map latency t.replies) in
        let untraced_p50 = median (List.map latency untraced.replies) in
        let n = float_of_int (max 1 (List.length t.replies)) in
        let misses = List.filter (fun r -> not r.cached) (if spec.expect_cached then warm else t.replies) in
        let hit_replies = List.filter (fun r -> r.cached) (if spec.expect_cached then t.replies else repeats) in
        let per_layer, detail = Layers.per_op_metrics spec.kinds in
        print_string detail;
        Layers.setup_metrics spec.kinds @ per_layer
        @ Layers.kernel_probe spec.kinds
        @ Layers.durable_metrics ~dir:(Filename.concat out_dir (Printf.sprintf "%d-probe" pid))
        @ [
            metric "server.hit_ms" "ms"
              (median (List.map (fun r -> latency r *. 1e3) hit_replies))
              ~note:(Printf.sprintf "n=%d cached responses" (List.length hit_replies));
            metric "server.exec_wakeups_per_req" "count" (float_of_int t.wakeups /. n);
            metric "server.cache_hit_ratio" "ratio"
              (if t.hits + t.misses = 0 then 0.
               else float_of_int t.hits /. float_of_int (t.hits + t.misses))
              ~note:(Printf.sprintf "%d hits, %d misses" t.hits t.misses);
            metric "server.exec_ms" "ms"
              (median (List.map (fun r -> r.dt_s *. 1e3) misses))
              ~note:(Printf.sprintf "n=%d misses" (List.length misses));
            metric "server.nonkernel_ms" "ms"
              (median (List.map (fun r -> (latency r -. r.dt_s) *. 1e3) misses))
              ~note:"miss latency - dt_s";
            metric "server.journal_fsyncs_per_req" "count" (float_of_int t.fsyncs /. n);
            metric "trace.overhead_ms" "ms" ((traced_p50 -. untraced_p50) *. 1e3)
              ~note:"traced - untraced latency p50";
            metric "trace.span_coverage" "ratio" t.coverage
              ~note:"request spans / (clients x loop wall)";
          ]
  in
  {
    attempted = List.length all_timed;
    failed = List.length bad;
    checks_ok = bad_setup = [];
    e2e;
    layers;
    trace = tr;
  }

(* campaign-rand10k: repeated [run_ppsfp] campaigns, at the engine's
   defaults, on rand10k over 256 random patterns, called directly
   (no server). *)

open Dynmos_faultsim
open Measure

let circuit = "rand10k"
let n_patterns = 256
let setup_reps = 5

(* Fewest campaigns a run times, whatever [--seconds] says: a latency is
   never taken from a single sample. *)
let min_ops = 5

(* Set-up: netlist + fault universe + patterns. *)
let setup tr req =
  let nl = Trace.span tr "circuits.Catalog.find" (fun _ -> Req.find_circuit circuit) in
  let u = Trace.span tr "faultsim.universe" (fun _ -> Faultsim.universe nl) in
  let pats = Trace.span tr "faultsim.random_patterns" (fun _ -> Req.patterns u req) in
  (u, pats)

(* One timed campaign; [same] says whether it completed with the
   reference first detections (checked after the op's clock stops). *)
type op = { dt : float; same : bool; counts : int * int * int }

(* Campaigns back to back for [seconds] (at least [min_ops]), each
   starting from a fully collected heap, so that no op pays for the
   garbage of the one before and the peak resident set does not depend
   on how many ops fit in the run.  Every campaign must reproduce the
   first detections in [reference], which the first campaign of a run
   fills when it is empty. *)
let timed_loop tr u pats ~seconds ~reference =
  let t0 = now () in
  let rec go acc n =
    if n >= min_ops && now () -. t0 >= seconds then List.rev acc
    else begin
      Trace.span tr "bench.collect" (fun _ -> Gc.full_major ());
      let s, counts, dt =
        Trace.span tr "op.campaign" (fun id ->
            let t = now () in
            let s, counts =
              Trace.span tr ~parent:id "faultsim.run_ppsfp" (fun _ ->
                  Layers.run_ppsfp ~traced:(Trace.on tr) u pats)
            in
            (s, counts, now () -. t))
      in
      if !reference = [||] then reference := s.Faultsim.first_detection;
      let same =
        s.Faultsim.outcome = Outcome.Complete && s.Faultsim.first_detection = !reference
      in
      go ({ dt; same; counts } :: acc) (n + 1)
    end
  in
  go [] 0

(* Re-derive the first detection of a seeded sample of sites with
   [Faultsim.detects]: a detected site's recorded pattern detects it and
   no earlier pattern does; an undetected site is detected by none. *)
let check_sites ~seed u pats first =
  let g = Dynmos_util.Prng.create (seed lxor 0xc4ec) in
  let sites = u.Faultsim.sites in
  let pick p =
    let cand = List.filter (fun s -> p first.(s.Faultsim.sid)) (Array.to_list sites) in
    let a = Array.of_list cand in
    List.init (min 4 (Array.length a)) (fun _ -> a.(Dynmos_util.Prng.int g (Array.length a)))
  in
  let ok site =
    let upto = match first.(site.Faultsim.sid) with Some k -> k | None -> Array.length pats - 1 in
    let rec scan j =
      if j > upto then first.(site.Faultsim.sid) = None
      else
        let d = Faultsim.detects u site pats.(j) in
        if j = upto && first.(site.Faultsim.sid) <> None then d else (not d) && scan (j + 1)
    in
    scan 0
  in
  let sample = pick Option.is_some @ pick Option.is_none in
  (List.length sample, List.for_all ok sample)

(* Probe server for the traced run: the campaign bypasses serve, so its
   serve-path figures come from sending its own job to a fresh volatile
   server once (a miss, after a zero-pattern request has built the
   circuit's universe) and then ten times more (hits). *)
let serve_probe ~out_dir req =
  let sock = Filename.concat out_dir (Printf.sprintf "%d-probe.sock" (Unix.getpid ())) in
  let h = Serve_load.start ~sock ~data_dir:None in
  let off = Trace.create false in
  let send reqs = Serve_load.run_clients off h ~n:1 ~next:(Serve_load.each_once [ reqs ]) in
  let (_ : Serve_load.reply list) = send [ { req with Req.patterns = 0 } ] in
  let w0 = Serve_load.stat h "exec_wakeups" in
  let replies = send (List.init 11 (fun _ -> req)) in
  let wakeups = Serve_load.stat h "exec_wakeups" - w0 in
  Serve_load.stop h;
  (replies, wakeups)

let run ~out_dir ~seed ~seconds ~traced =
  let req = { Req.circuit; patterns = n_patterns; seed } in
  let off = Trace.create false in
  let timed_setup () =
    Gc.full_major ();
    time (fun () -> setup off req)
  in
  (* The first set-up's inputs are the ones measured; the rest of the
     set-ups that [setup_s] takes its median from run after the timed
     loop, so the peak resident set is that of one set-up. *)
  let (u, pats), setup1 = timed_setup () in
  let reference = ref [||] in
  let untraced = timed_loop off u pats ~seconds ~reference in
  let rss = peak_rss_mb () in
  let tr = Trace.create traced in
  let traced_ops, coverage =
    if traced then begin
      (* the set-up spans of the traced run *)
      ignore (setup tr req : Faultsim.universe * bool array array);
      let t0 = now () in
      let ops = timed_loop tr u pats ~seconds ~reference in
      let t1 = now () in
      (ops, Trace.top_level_within tr ~t0 ~t1 /. (t1 -. t0))
    end
    else ([], nan)
  in
  let setup_times =
    (* the traced run reports no set-up time *)
    if traced then [ setup1 ]
    else setup1 :: List.init (setup_reps - 1) (fun _ -> snd (timed_setup ()))
  in
  (* Checks, outside every timed region: every campaign completed with
     the reference first detections, and a sample of those is
     re-derived. *)
  let ops = untraced @ traced_ops in
  let bad = List.filter (fun op -> not op.same) ops in
  let reference = !reference in
  let n_checked, sites_ok = check_sites ~seed u pats reference in
  Printf.printf "  checked %d campaigns; re-derived %d sites with Faultsim.detects: %s\n"
    (List.length ops) n_checked
    (if sites_ok then "ok" else "MISMATCH");
  (* the traced run's probe server must agree too: one miss, then hits *)
  let probe = if traced then Some (serve_probe ~out_dir req) else None in
  let probe_ok =
    match probe with
    | None -> true
    | Some (replies, _) -> (
        let expected _ =
          (Array.fold_left (fun acc f -> if f = None then acc else acc + 1) 0 reference, Faultsim.n_sites u)
        in
        match replies with
        | miss :: hits ->
            Serve_load.check expected ~cached:false [ miss ] @ Serve_load.check expected ~cached:true hits = []
        | [] -> false)
  in
  Printf.printf "  campaign ms:%s\n"
    (String.concat "" (List.map (fun op -> Printf.sprintf " %.0f" (op.dt *. 1e3)) untraced));
  let n = List.length untraced in
  let busy = List.fold_left (fun acc op -> acc +. op.dt) 0. untraced in
  let e2e =
    [
      metric "setup_s" "s" (median setup_times)
        ~note:(Printf.sprintf "median of %d set-ups" (List.length setup_times));
    ]
    @ latency_metrics (List.map (fun op -> op.dt) untraced)
    @ [
        metric "throughput_rps" "1/s" (float_of_int n /. busy)
          ~note:(Printf.sprintf "%d campaigns in %.2f s of campaign time" n busy);
        metric "peak_rss_mb" "MB" rss ~note:"VmHWM after the timed loop";
      ]
  in
  let layers =
    match probe with
    | None -> []
    | Some (replies, wakeups) ->
      let miss = List.filter (fun r -> not r.Serve_load.cached) replies in
      let hits = List.filter (fun r -> r.Serve_load.cached) replies in
      (* the probes' job kind: the request a client would send to have
         this campaign run by [dynmos serve] *)
      let kinds = [ { Layers.req; weight = 1 } ] in
      let per_op, detail = Layers.per_op_metrics kinds in
      print_string detail;
      let p50 l = median (List.map (fun op -> op.dt) l) in
      let no_server = "0: the campaign makes no server requests" in
      Layers.setup_metrics kinds @ per_op
      @ Layers.kernel_metrics ~note:"traced loop spans, mean"
          (List.map2 (fun d op -> (1, d, op.counts)) (Trace.durations tr "faultsim.run_ppsfp") traced_ops)
      @ Layers.durable_metrics ~dir:(Filename.concat out_dir (Printf.sprintf "%d-probe" (Unix.getpid ())))
      @ [
          metric "server.hit_ms" "ms"
            (median (List.map (fun r -> Serve_load.latency r *. 1e3) hits))
            ~note:(Printf.sprintf "probe server, n=%d hits" (List.length hits));
          metric "server.exec_wakeups_per_req" "count"
            (float_of_int wakeups /. float_of_int (List.length replies))
            ~note:"probe server";
          metric "server.cache_hit_ratio" "ratio" 0. ~note:no_server;
          metric "server.exec_ms" "ms"
            (median (List.map (fun r -> r.Serve_load.dt_s *. 1e3) miss))
            ~note:"probe server miss";
          metric "server.nonkernel_ms" "ms"
            (median (List.map (fun r -> (Serve_load.latency r -. r.Serve_load.dt_s) *. 1e3) miss))
            ~note:"probe server miss latency - dt_s";
          metric "server.journal_fsyncs_per_req" "count" 0. ~note:no_server;
          metric "trace.overhead_ms" "ms" ((p50 traced_ops -. p50 untraced) *. 1e3)
            ~note:"traced - untraced latency p50";
          metric "trace.span_coverage" "ratio" coverage
            ~note:"top-level spans (campaigns, collections between them) / loop wall";
        ]
  in
  (* a wrong reference fails every campaign, since all reproduced it *)
  let failed = if sites_ok then List.length bad else List.length ops in
  { attempted = List.length ops; failed; checks_ok = sites_ok && probe_ok; e2e; layers; trace = tr }

(* Isolated per-layer probes: each times one public call of one layer,
   alone, on the workload's own inputs, outside the timed region of the
   traced run.  A workload is described to the probes as its job kinds
   with their share of the workload's ops, so per-op figures are
   mix-weighted means. *)

open Dynmos_faultsim
open Dynmos_server
module Compiled = Dynmos_sim.Compiled
open Measure

type kind = { req : Req.t; weight : int }

let weighted kinds f =
  let total = List.fold_left (fun acc k -> acc + k.weight) 0 kinds in
  List.fold_left (fun acc k -> acc +. (float_of_int k.weight *. f k)) 0. kinds
  /. float_of_int total

(* Enough repetitions of [f] for a steady median: about 50 ms of calls,
   between 5 and 2000 of them. *)
let steady_time f =
  let (_ : _), first = time f in
  let reps = max 5 (min 2000 (int_of_float (0.05 /. Float.max first 1e-7))) in
  median_time ~reps f

(* Set-up layers, summed over the workload's distinct circuits: what a
   campaign's set-up or a cold server's first request on each circuit
   pays. *)
let setup_metrics kinds =
  let circuits = List.sort_uniq compare (List.map (fun k -> k.req.Req.circuit) kinds) in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0. circuits in
  let reps = 3 in
  let build = sum (fun c -> median_time ~reps (fun () -> Req.find_circuit c)) in
  let compile =
    sum (fun c ->
        let nl = Req.find_circuit c in
        median_time ~reps (fun () -> Compiled.compile nl))
  in
  let universe =
    sum (fun c ->
        let nl = Req.find_circuit c in
        median_time ~reps (fun () -> Faultsim.universe nl))
  in
  let note = "sum over " ^ String.concat "," circuits ^ ", median of 3" in
  [
    metric "circuits.build_s" "s" build ~note;
    metric "sim.compile_s" "s" compile ~note;
    metric "faultsim.universe_s" "s" universe ~note;
  ]

(* Pack patterns 62 to a word, per primary input, as the engines do. *)
let pack_words n_inputs pats =
  let total = Array.length pats in
  Array.init ((total + 61) / 62) (fun w ->
      let words = Array.make n_inputs 0 in
      for j = 0 to min 62 (total - (w * 62)) - 1 do
        let p = pats.((w * 62) + j) in
        for i = 0 to n_inputs - 1 do
          if p.(i) then words.(i) <- words.(i) lor (1 lsl j)
        done
      done;
      words)

(* The admission caps of the server's default config. *)
let limits =
  {
    Protocol.max_patterns = Server.default_config.Server.max_patterns;
    max_seconds = Server.default_config.Server.max_seconds;
    max_request_evals = Server.default_config.Server.max_request_evals;
  }

let parse line = Protocol.parse_request ~limits ~known_circuit:Dynmos_circuits.Catalog.mem line

(* Per-op layers of one job: pattern generation, the cache-key digests,
   the good-machine sweep over the job's pattern words, and the
   request's parse and response encoding. *)
let per_op_metrics kinds =
  let detail = Buffer.create 256 in
  let per_kind k =
    let r = k.req in
    let u = Req.universe r.Req.circuit in
    let pats = Req.patterns u r in
    let c = u.Faultsim.compiled in
    let words = pack_words (Compiled.n_inputs c) pats in
    let scratch = Compiled.make_scratch c in
    let line = Req.line ~id:1 r in
    let fields =
      [
        ("circuit", Json.String r.Req.circuit);
        ("engine", Json.String "ppsfp");
        ("sites", Json.Int (Faultsim.n_sites u));
        ("patterns", Json.Int r.Req.patterns);
        ("detected", Json.Int 0);
        ("coverage", Json.Float 0.5);
        ("dt_s", Json.Float 0.001);
        ("gate_evals", Json.Int 0);
        ("cached", Json.Bool true);
        ("recovered", Json.Bool false);
      ]
    in
    let patterns = steady_time (fun () -> Req.patterns u r) in
    let digest =
      steady_time (fun () ->
          ignore (Faultsim.circuit_digest u : string);
          ignore (Faultsim.universe_digest u : string);
          ignore (Faultsim.patterns_digest pats : string))
    in
    let sweep =
      steady_time (fun () -> Array.iter (fun w -> Compiled.eval_words_into c ~scratch w) words)
    in
    let parse =
      steady_time (fun () ->
          match parse line with Ok _ -> () | Error e -> failwith ("probe request rejected: " ^ e))
    in
    let encode =
      steady_time (fun () ->
          ignore (Protocol.response ~line:1 ~id:(Json.Int 1) ~status:"ok" fields : string))
    in
    Printf.bprintf detail "    %-16s x%-2d patterns %.3f ms, digests %.3f ms, sweep %.3f ms\n"
      (Req.label r) k.weight (patterns *. 1e3) (digest *. 1e3) (sweep *. 1e3);
    (patterns, digest, sweep, parse, encode)
  in
  let rows = List.map (fun k -> (k, per_kind k)) kinds in
  let avg f = weighted kinds (fun k -> f (List.assq k rows)) in
  let note = Printf.sprintf "mix-weighted mean over %d job kinds" (List.length kinds) in
  ( [
      metric "faultsim.patterns_ms" "ms" (avg (fun (p, _, _, _, _) -> p) *. 1e3) ~note;
      metric "faultsim.digest_ms" "ms" (avg (fun (_, d, _, _, _) -> d) *. 1e3) ~note;
      metric "sim.good_sweep_ms" "ms" (avg (fun (_, _, s, _, _) -> s) *. 1e3) ~note;
      metric "server.parse_us" "us" (avg (fun (_, _, _, p, _) -> p) *. 1e6) ~note;
      metric "server.encode_us" "us" (avg (fun (_, _, _, _, e) -> e) *. 1e6) ~note;
    ],
    Buffer.contents detail )

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The durable writes of serve's data dir, each timed alone in a scratch
   directory on the same filesystem the serve workloads' data dirs use:
   a journal admit + done pair, a cache-entry persist of a rand1k job,
   and a checkpoint save of a rand60 job's state. *)
let durable_metrics ~dir =
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let small = { Req.circuit = "rand60"; patterns = 4096; seed = 1 } in
      let big = { Req.circuit = "rand1k"; patterns = 256; seed = 1 } in
      let envelope =
        match parse (Req.line ~id:1 small) with
        | Ok (Protocol.Run r) -> Protocol.run_envelope r
        | _ -> failwith "probe envelope"
      in
      let journal = Journal.open_ (Filename.concat dir "journal") in
      let journal_s =
        median_time ~reps:50 (fun () ->
            let jid = Journal.append_admit journal ~envelope in
            Journal.append_done journal ~jid ~status:"ok")
      in
      Journal.close journal;
      let run r =
        let u = Req.universe r.Req.circuit in
        let pats = Req.patterns u r in
        (u, pats, Faultsim.run_ppsfp u pats)
      in
      let u1, pats1, s1 = run big in
      let entry =
        {
          Cache_store.key =
            String.concat "|"
              [ Faultsim.circuit_digest u1; Faultsim.universe_digest u1; Faultsim.patterns_digest pats1 ];
          summary = s1;
          dt_s = 0.01;
          evals = 1;
          n_sites = Faultsim.n_sites u1;
        }
      in
      let cache_dir = Filename.concat dir "cache" in
      Unix.mkdir cache_dir 0o755;
      let persist_s = median_time ~reps:30 (fun () -> Cache_store.save cache_dir entry) in
      let u0, pats0, s0 = run small in
      let state =
        {
          Checkpoint.mode = Checkpoint.Patterns;
          circuit_digest = Faultsim.circuit_digest u0;
          universe_digest = Faultsim.universe_digest u0;
          pattern_digest = Faultsim.patterns_digest pats0;
          n_sites = Faultsim.n_sites u0;
          n_patterns = small.Req.patterns;
          units_done = small.Req.patterns;
          first_detection = s0.Faultsim.first_detection;
          site_done = None;
          prng_state = None;
        }
      in
      let ckpt = Filename.concat dir "job.ckpt" in
      let ckpt_s = median_time ~reps:30 (fun () -> Checkpoint.save ckpt state) in
      [
        metric "server.journal_append_ms" "ms" (journal_s *. 1e3) ~note:"admit+done pair, median of 50";
        metric "server.cache_persist_ms" "ms" (persist_s *. 1e3) ~note:"rand1k@256 entry, median of 30";
        metric "faultsim.checkpoint_save_ms" "ms" (ckpt_s *. 1e3) ~note:"rand60@4096 state, median of 30";
      ])

(* Engine counters of one run, read off its "faultsim.run" obs event. *)
let kernel_counts events =
  List.fold_left
    (fun (g, e, s) ev ->
      if ev.Dynmos_obs.Obs.ev <> "faultsim.run" then (g, e, s)
      else
        let get k = Option.value ~default:0 (Dynmos_obs.Obs.int_field ev k) in
        (g + get "gate_evals", e + get "evals", s + get "evals_saved"))
    (0, 0, 0) events

(* [run_ppsfp] at its defaults, recording its obs event when [traced]. *)
let run_ppsfp ~traced u pats =
  if traced then begin
    let sink, fetch = Dynmos_obs.Obs.memory_sink () in
    let s = Faultsim.run_ppsfp ~obs:(Dynmos_obs.Obs.make sink) u pats in
    (s, kernel_counts (fetch ()))
  end
  else (Faultsim.run_ppsfp u pats, (0, 0, 0))

(* Kernel metrics over ops given as (weight, seconds, (gate_evals,
   evals, evals_saved)): mix-weighted mean seconds and gate evaluations
   per op, and the share of site evaluations fault dropping saved. *)
let kernel_metrics ~note ops =
  let w = List.fold_left (fun acc (w, _, _) -> acc + w) 0 ops in
  let wmean f =
    List.fold_left (fun acc (k, dt, c) -> acc +. (float_of_int k *. f dt c)) 0. ops
    /. float_of_int (max 1 w)
  in
  let e, s = List.fold_left (fun (e, s) (k, _, (_, e', s')) -> (e + (k * e'), s + (k * s'))) (0, 0) ops in
  [
    metric "faultsim.kernel_s" "s" (wmean (fun dt _ -> dt)) ~note;
    metric "faultsim.kernel.gate_evals" "count" (wmean (fun _ (g, _, _) -> float_of_int g)) ~note:"per op";
    metric "faultsim.kernel.drop_ratio" "ratio"
      (if e + s = 0 then 0. else float_of_int s /. float_of_int (e + s))
      ~note:"evals_saved / (evals + evals_saved)";
  ]

(* [run_ppsfp] timed alone on each job kind: median of 3 runs, with the
   counters of a recorded run. *)
let kernel_probe kinds =
  kernel_metrics ~note:"isolated, median of 3 per job kind, mix-weighted"
    (List.map
       (fun k ->
         let u = Req.universe k.req.Req.circuit in
         let pats = Req.patterns u k.req in
         let _, counts = run_ppsfp ~traced:true u pats in
         (k.weight, median_time ~reps:3 (fun () -> Faultsim.run_ppsfp u pats), counts))
       kinds)

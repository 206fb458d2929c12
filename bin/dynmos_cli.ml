(* dynmos — command-line front end.

   Subcommands:
     faultlib FILE       generate and print the fault library of the cells
                         in a description file (optionally emit Pascal or
                         OCaml source);
     protest CIRCUIT     run the PROTEST pipeline on a built-in benchmark
                         circuit (signal probabilities, detection
                         probabilities, test length, optional optimization,
                         validation);
     selftest CIRCUIT    run an LFSR/BILBO self-test session and report
                         signature-based coverage;
     atpg CIRCUIT        generate a PODEM test set and report its size and
                         coverage;
     circuits            list the built-in benchmark circuits. *)

open Cmdliner
open Dynmos_cell
open Dynmos_core
open Dynmos_netlist
open Dynmos_faultsim
open Dynmos_protest
open Dynmos_atpg
open Dynmos_circuits
module Obs = Dynmos_obs.Obs
module Chaos = Dynmos_chaos.Chaos

(* --- Argument hardening ---------------------------------------------------- *)

(* Validating converters: a nonsensical numeric argument must die as a
   clean Cmdliner usage error at parse time, never as an uncaught
   [Invalid_argument] backtrace from deep inside a library. *)

let bounded_int ~what ?(min = Stdlib.min_int) ?(max = Stdlib.max_int) () =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Fmt.str "%s: expected an integer, got %S" what s))
    | Some n when n < min -> Error (`Msg (Fmt.str "%s must be >= %d (got %d)" what min n))
    | Some n when n > max -> Error (`Msg (Fmt.str "%s must be <= %d (got %d)" what max n))
    | Some n -> Ok n
  in
  Arg.conv (parse, Format.pp_print_int)

let open_probability ~what =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Fmt.str "%s: expected a number, got %S" what s))
    | Some p when p > 0.0 && p < 1.0 -> Ok p
    | Some p -> Error (`Msg (Fmt.str "%s must lie strictly between 0 and 1 (got %g)" what p))
  in
  Arg.conv (parse, Format.pp_print_float)

let positive_float ~what =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg (Fmt.str "%s: expected a number, got %S" what s))
    | Some f when f > 0.0 -> Ok f
    | Some f -> Error (`Msg (Fmt.str "%s must be positive (got %g)" what f))
  in
  Arg.conv (parse, Format.pp_print_float)

(* --chaos SPEC: a deterministic fault-injection schedule.  Shared by
   faultsim (checkpoint and supervised-retry points) and serve (client
   I/O, scheduler and cache points); the same spec and seed always replays
   the same schedule. *)
let chaos_arg =
  let chaos_conv =
    Arg.conv
      ( (fun s ->
          match Chaos.of_spec s with
          | Ok c -> Ok c
          | Error e -> Error (`Msg (Fmt.str "--chaos: %s" e))),
        fun ppf c -> Format.pp_print_string ppf (Chaos.to_spec c) )
  in
  Arg.(value & opt chaos_conv Chaos.disabled
       & info [ "chaos" ] ~docv:"SPEC"
           ~doc:"Deterministic fault injection: comma-separated point=action pairs plus \
                 an optional seed, e.g. \
                 'ckpt.write=fail_once,sched.task=fail_prob:0.2,seed=7'.  Actions: \
                 fail_once, fail_prob:P, delay:MS, torn_write.  Points: sched.spawn, \
                 sched.task, exec.job, ckpt.write, ckpt.rename, ckpt.fsync, serve.write, \
                 serve.read, cache.insert, journal.append, journal.fsync, \
                 journal.compact, cache.persist.  The same spec replays the same failure \
                 schedule.")

(* Second line of defense for anything the converters cannot know (file
   errors, library-level validation): report instead of backtracing. *)
let guard f =
  try f () with
  | Invalid_argument msg | Failure msg | Sys_error msg -> `Error (false, msg)
  | Checkpoint.Error msg ->
      (* a refused or unreadable durable file (a checkpoint, or serve's
         journal at boot: the three durable modules share this
         exception) is not a command-line error: report it once (the
         message names the file) and exit with cmdliner's generic
         failure code *)
      Format.eprintf "dynmos: %s@." msg;
      `Ok Cmd.Exit.some_error

(* --- Signal handling ------------------------------------------------------- *)

(* Long campaigns stop cooperatively: the first SIGINT/SIGTERM sets a
   flag the engines poll via [?interrupt], so the run winds down at the
   next pattern-unit boundary — final checkpoint written, trace sink
   flushed — and the process exits 130.  A second signal aborts
   immediately (also 130; [Stdlib.exit] still flushes open channels). *)
let interrupt_flag = Atomic.make false

let install_signal_handlers () =
  let handler =
    Sys.Signal_handle
      (fun _ -> if Atomic.exchange interrupt_flag true then Stdlib.exit 130)
  in
  (try Sys.set_signal Sys.sigint handler with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ | Sys_error _ -> ());
  fun () -> Atomic.get interrupt_flag

(* --- Built-in benchmark circuits ----------------------------------------- *)

(* The named catalog lives in [Dynmos_circuits.Catalog] so the serve loop
   resolves the same names as the subcommands. *)
let circuit_of_name = Catalog.find

let circuit_arg =
  let doc = "Built-in benchmark circuit name (see the 'circuits' subcommand)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

(* --- faultlib -------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let faultlib_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Cell description file (paper syntax).")
  in
  let emit =
    Arg.(value & opt (enum [ ("table", `Table); ("pascal", `Pascal); ("ocaml", `Ocaml) ]) `Table
         & info [ "emit" ] ~docv:"FORMAT" ~doc:"Output format: table, pascal or ocaml.")
  in
  let weak =
    Arg.(value & flag
         & info [ "weak" ]
             ~doc:"Use the weak-device electrical model (CMOS-3 becomes a delay fault).")
  in
  let run file emit weak =
    guard @@ fun () ->
    match Cell_parser.cells (read_file file) with
    | exception Cell_parser.Error msg -> `Error (false, msg)
    | exception Sys_error msg -> `Error (false, msg)
    | cells ->
        let electrical =
          if weak then Some Fault_map.weak_electrical else None
        in
        List.iter
          (fun cell ->
            let lib = Faultlib.generate ?electrical cell in
            (match emit with
            | `Table -> Faultlib.pp_table Format.std_formatter lib
            | `Pascal -> print_string (Faultlib.to_pascal lib)
            | `Ocaml -> print_string (Faultlib.to_ocaml lib));
            print_newline ())
          cells;
        `Ok 0
  in
  let doc = "Generate the technology-dependent fault library of a cell file." in
  Cmd.v (Cmd.info "faultlib" ~doc) Term.(ret (const run $ file $ emit $ weak))

(* --- faultsim ---------------------------------------------------------------- *)

let faultsim_cmd =
  let patterns =
    Arg.(value & opt (bounded_int ~what:"--patterns" ~min:0 ()) 256
         & info [ "patterns"; "n" ] ~docv:"N" ~doc:"Number of random patterns to simulate.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Pattern generator seed.")
  in
  let engine =
    Arg.(value
         & opt (enum Dynmos_server.Protocol.engines) `Ppsfp
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:
               "Engine: ppsfp (parallel-pattern single-fault propagation, 62 patterns per \
                word, on --jobs domains) or serial (one pattern at a time, the readable \
                reference).  Both propagate each fault event by event from its own gate; \
                results are bit-identical.")
  in
  let jobs =
    Arg.(value & opt (some (bounded_int ~what:"--jobs" ~min:0 ())) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:
               "Worker domains for the 'ppsfp' engine (omitted or 0 = \
                Domain.recommended_domain_count ()); clamped to the site count and the \
                estimated work.  Refused with 'serial', which runs on one domain.")
  in
  let no_drop =
    Arg.(value & flag & info [ "no-drop" ] ~doc:"Simulate every fault on every pattern.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the run counters of the engine's faultsim.run event (for the \
                   'ppsfp' engine including requested and effective domain counts) after \
                   the summary.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Append every observability event as one JSON line to $(docv).")
  in
  let ckpt =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Persist campaign progress to $(docv) (atomic rename) every \
                   --checkpoint-interval completed units and at exit.")
  in
  let ckpt_interval =
    Arg.(value & opt (bounded_int ~what:"--checkpoint-interval" ~min:1 ()) 1000
         & info [ "checkpoint-interval" ] ~docv:"N"
             ~doc:"Completed patterns between checkpoint writes (rounded up to whole \
                   pattern units).")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Resume from --checkpoint FILE, validated against the circuit, fault \
                   universe and pattern set; a missing file is a fresh start.")
  in
  let deadline =
    Arg.(value & opt (some (positive_float ~what:"--deadline")) None
         & info [ "deadline" ] ~docv:"SEC"
             ~doc:"Stop cleanly after $(docv) seconds of wall clock and report the \
                   partial result (exit code 2).")
  in
  let max_evals =
    Arg.(value & opt (some (bounded_int ~what:"--max-evals" ~min:1 ())) None
         & info [ "max-evals" ] ~docv:"N"
             ~doc:"Stop cleanly after a budget of $(docv) faulty gate evaluations and \
                   report the partial result (exit code 2).")
  in
  let run name patterns seed engine jobs no_drop stats trace ckpt ckpt_interval resume
      deadline_in max_evals chaos =
    guard @@ fun () ->
    match circuit_of_name name with
    | Error e -> `Error (false, e)
    | Ok _ when resume && ckpt = None -> `Error (true, "--resume requires --checkpoint FILE")
    | Ok _ when engine = `Serial && jobs <> None ->
        `Error (true, "--jobs only applies to the 'ppsfp' engine")
    | Ok nl ->
        let u = Faultsim.universe nl in
        let prng = Dynmos_util.Prng.create seed in
        let prng_state = Dynmos_util.Prng.save prng in
        let pats =
          Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl))
            ~count:patterns
        in
        let drop = not no_drop in
        let num_domains =
          match jobs with Some n when n > 0 -> n | _ -> Parallel_exec.default_domains ()
        in
        let checkpoint =
          Option.map
            (fun path ->
              Faultsim.checkpoint_ctl ~path ~interval:ckpt_interval ~resume ~prng_state
                ~chaos u pats)
            ckpt
        in
        let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_in in
        let interrupt = install_signal_handlers () in
        (* --trace streams every event to a JSONL file; the run's
           counters come back typed, for the engine line and --stats. *)
        let trace_oc =
          Option.map (open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644) trace
        in
        let obs =
          Option.fold ~none:Obs.disabled ~some:(fun oc -> Obs.make (Obs.channel_sink oc)) trace_oc
        in
        let counts = ref None in
        let on_counts c = counts := Some c in
        let t0 = Unix.gettimeofday () in
        let s =
          match engine with
          | `Serial ->
              Faultsim.run_serial ~drop ~obs ?deadline ?max_evals ~interrupt ?checkpoint
                ~on_counts ~chaos u pats
          | `Ppsfp ->
              Faultsim.run_ppsfp ~drop ~num_domains ~obs ?deadline ?max_evals ~interrupt
                ?checkpoint ~on_counts ~chaos u pats
        in
        let dt = Unix.gettimeofday () -. t0 in
        let counts = Option.get !counts in
        let name = match engine with `Serial -> "serial" | `Ppsfp -> "ppsfp" in
        let engine_name =
          match engine with
          | `Serial -> name
          | `Ppsfp ->
              Fmt.str "ppsfp(%d requested, %d effective)" counts.Campaign.requested_domains
                counts.Campaign.effective_domains
        in
        Format.printf "%s: %d sites, %d patterns -> %.2f%% coverage (%d detected)@."
          (Netlist.name nl) (Faultsim.n_sites u) patterns
          (100.0 *. Faultsim.coverage s)
          (Faultsim.n_detected s);
        Format.printf "engine %s: %.4f s wall, %.0f patterns/s@." engine_name dt
          (float_of_int patterns /. Float.max 1e-9 dt);
        (match s.Faultsim.outcome with
        | Outcome.Complete -> ()
        | Outcome.Partial p ->
            let cause =
              match p.Outcome.stopped with
              | Some c -> Outcome.stop_cause_name c
              | None -> "site failures"
            in
            Format.printf
              "partial result (%s): %d/%d patterns, %d/%d sites final; coverage is a \
               lower bound (%.2f%% over finished sites)@."
              cause s.Faultsim.patterns_done patterns s.Faultsim.sites_done
              (Faultsim.n_sites u)
              (100.0 *. Faultsim.coverage_of_done s);
            List.iter
              (fun (sid, msg) ->
                Format.printf "site %d gave up after repeated failures: %s@." sid msg)
              p.Outcome.failed_sites);
        (match checkpoint with
        | Some ctl ->
            Format.printf "checkpoint %s: %d write(s)@." (Checkpoint.path ctl)
              (Checkpoint.writes ctl)
        | None -> ());
        if stats then begin
          Format.printf "stats:";
          List.iter
            (fun (k, v) ->
              Format.printf " %s=%s" k
                (match v with
                | Obs.Float f -> Fmt.str "%.6f" f
                | Obs.String s -> s
                | v -> Dynmos_json.Json.to_string v))
            (Campaign.run_fields ~engine:name ~dt_s:dt s counts);
          Format.printf "@.";
          (* Durability accounting for checkpointed campaigns: how much
             progress persistence cost, and where the resume state came
             from (a primary corrupted under the writer falls back to
             the .bak rotation). *)
          (match checkpoint with
          | Some ctl ->
              let resumed_units =
                match Checkpoint.resume_state ctl with
                | Some st -> st.Checkpoint.units_done
                | None -> 0
              in
              Format.printf
                "durability: ckpt_writes=%d ckpt_failed_writes=%d ckpt_stale_cleaned=%d \
                 resumed_units=%d resumed_from_backup=%b@."
                (Checkpoint.writes ctl) (Checkpoint.failed_writes ctl)
                (Checkpoint.stale_cleaned ctl) resumed_units
                (Checkpoint.resumed_from_backup ctl)
          | None -> ());
          if Chaos.enabled chaos then begin
            Format.printf "chaos: spec=%s injected=%d" (Chaos.to_spec chaos)
              (Chaos.injected chaos);
            List.iter (fun (p, n) -> Format.printf " %s=%d" p n) (Chaos.counts chaos);
            (match checkpoint with
            | Some ctl ->
                Format.printf " failed_writes=%d stale_cleaned=%d"
                  (Checkpoint.failed_writes ctl) (Checkpoint.stale_cleaned ctl)
            | None -> ());
            Format.printf "@."
          end
        end;
        Option.iter close_out trace_oc;
        (match trace with
        | Some file -> Format.printf "trace written to %s@." file
        | None -> ());
        (* 0 = complete; 2 = partial (deadline / budget / failed sites);
           130 = interrupted by SIGINT/SIGTERM, after the final
           checkpoint and trace flush. *)
        let code =
          match s.Faultsim.outcome with
          | Outcome.Partial { Outcome.stopped = Some Outcome.Interrupted; _ } -> 130
          | o -> Outcome.exit_code o
        in
        `Ok code
  in
  let doc =
    "Random-pattern fault simulation with a selectable engine (--jobs for multicore, \
     --checkpoint/--resume for fault tolerance, --deadline and --max-evals for budgeted \
     partial results)."
  in
  Cmd.v (Cmd.info "faultsim" ~doc)
    Term.(
      ret
        (const run $ circuit_arg $ patterns $ seed $ engine $ jobs $ no_drop $ stats
       $ trace $ ckpt $ ckpt_interval $ resume $ deadline $ max_evals $ chaos_arg))

(* --- protest ---------------------------------------------------------------- *)

let protest_cmd =
  let confidence =
    Arg.(value & opt (open_probability ~what:"--confidence") 0.999
         & info [ "confidence"; "c" ] ~docv:"C" ~doc:"Demanded test confidence in (0,1).")
  in
  let optimize =
    Arg.(value & flag & info [ "optimize"; "O" ] ~doc:"Optimize input signal probabilities.")
  in
  let validate =
    Arg.(value & flag & info [ "validate" ] ~doc:"Fault-simulate the proposed random test.")
  in
  let run name confidence optimize validate =
    guard @@ fun () ->
    match circuit_of_name name with
    | Error e -> `Error (false, e)
    | Ok nl ->
        let report = Protest.analyze ~confidence ~optimize nl in
        Protest.pp_report Format.std_formatter report;
        if validate then begin
          let v = Protest.validate report in
          Format.printf "validation: %d patterns -> %.2f%% coverage (predicted %.4f)@."
            v.Protest.applied
            (100.0 *. v.Protest.achieved_coverage)
            v.Protest.predicted_confidence
        end;
        `Ok 0
  in
  let doc = "Probabilistic testability analysis (the PROTEST pipeline)." in
  Cmd.v (Cmd.info "protest" ~doc)
    Term.(ret (const run $ circuit_arg $ confidence $ optimize $ validate))

(* --- selftest ---------------------------------------------------------------- *)

let selftest_cmd =
  let cycles =
    Arg.(value & opt (bounded_int ~what:"--cycles" ~min:0 ()) 500
         & info [ "cycles"; "n" ] ~docv:"N" ~doc:"Session length in clocks.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.") in
  let run name cycles seed =
    guard @@ fun () ->
    match circuit_of_name name with
    | Error e -> `Error (false, e)
    | Ok nl ->
        let u = Faultsim.universe nl in
        let cov = Dynmos_bist.Selftest.coverage ~seed u ~n_cycles:cycles in
        Format.printf "%s: %d fault sites, BILBO session of %d cycles -> %.2f%% coverage@."
          (Netlist.name nl) (Faultsim.n_sites u) cycles (100.0 *. cov);
        `Ok 0
  in
  let doc = "Signature-based random self test (LFSR + MISR)." in
  Cmd.v (Cmd.info "selftest" ~doc) Term.(ret (const run $ circuit_arg $ cycles $ seed))

(* --- atpg --------------------------------------------------------------------- *)

let atpg_cmd =
  let run name =
    guard @@ fun () ->
    match circuit_of_name name with
    | Error e -> `Error (false, e)
    | Ok nl ->
        let u = Faultsim.universe nl in
        let r = Podem.generate_set u in
        let s = Faultsim.run_ppsfp u r.Podem.vectors in
        let untestable =
          Array.to_list r.Podem.per_site
          |> List.filter (function Podem.Untestable -> true | _ -> false)
          |> List.length
        in
        Format.printf
          "%s: %d sites -> %d vectors, coverage %.2f%%, %d untestable, %d dropped by simulation@."
          (Netlist.name nl) (Faultsim.n_sites u)
          (Array.length r.Podem.vectors)
          (100.0 *. Faultsim.coverage s)
          untestable r.Podem.covered_by_simulation;
        Format.printf "A2: apply the set twice -> %d test applications@."
          (2 * Array.length r.Podem.vectors);
        `Ok 0
  in
  let doc = "Deterministic test generation (PODEM baseline)." in
  Cmd.v (Cmd.info "atpg" ~doc) Term.(ret (const run $ circuit_arg))

(* --- diagnose ------------------------------------------------------------------ *)

let diagnose_cmd =
  let run name =
    guard @@ fun () ->
    match circuit_of_name name with
    | Error e -> `Error (false, e)
    | Ok nl ->
        let u = Faultsim.universe nl in
        if List.length (Netlist.inputs nl) > 16 then
          `Error (false, "diagnosis needs <= 16 primary inputs")
        else begin
          Format.printf "%s: %d fault sites, pairwise distinguishable: %b@." (Netlist.name nl)
            (Faultsim.n_sites u)
            (Diagnosis.pairwise_distinguishable u);
          let pats, groups = Diagnosis.diagnosing_patterns u in
          Format.printf "adaptive diagnosing set: %d patterns, %d ambiguity groups@."
            (Array.length pats) (List.length groups);
          List.iter
            (fun g ->
              if List.length g > 1 then
                Format.printf "  indistinguishable: %s@."
                  (String.concat " | "
                     (List.map (fun sid -> Faultsim.site_label u u.Faultsim.sites.(sid)) g)))
            groups;
          `Ok 0
        end
  in
  let doc = "Build an adaptive diagnosing pattern set and report its resolution." in
  Cmd.v (Cmd.info "diagnose" ~doc) Term.(ret (const run $ circuit_arg))

(* --- serve ---------------------------------------------------------------------- *)

(* Long-lived batch front end: JSONL requests from stdin (or a Unix
   socket, serving any number of clients concurrently), one terminal
   response line per request line, crash isolation via the supervised
   engines, a shared executor pool with a content-addressed result
   cache, bounded admission queue, graceful drain on the first
   SIGTERM/SIGINT (second signal hard-exits 130 — the same contract as
   a checkpointed campaign).  Signals are converted to drain requests by
   a dedicated sigwait thread: [Server.request_drain] takes locks and
   wakes condition variables, which a signal handler must never do. *)
let serve_cmd =
  let module Server = Dynmos_server.Server in
  let queue =
    Arg.(value & opt (bounded_int ~what:"--queue" ~min:1 ()) Server.default_config.Server.queue_capacity
         & info [ "queue" ] ~docv:"N"
             ~doc:"Pending-request queue capacity; further run requests are answered \
                   'overloaded' (backpressure instead of unbounded memory).")
  in
  let executors =
    Arg.(value & opt (bounded_int ~what:"--executors" ~min:1 ()) Server.default_config.Server.executors
         & info [ "executors" ] ~docv:"N"
             ~doc:"Worker domains in the shared executor pool; jobs from all clients \
                   multiplex onto it with per-client FIFO fairness.")
  in
  let cache =
    Arg.(value & opt (bounded_int ~what:"--cache" ~min:0 ()) Server.default_config.Server.cache_capacity
         & info [ "cache" ] ~docv:"N"
             ~doc:"Capacity (entries) of the content-addressed result cache; a repeat of \
                   a completed run is answered from it without simulating. 0 disables.")
  in
  let max_patterns =
    Arg.(value & opt (bounded_int ~what:"--max-patterns" ~min:0 ()) Server.default_config.Server.max_patterns
         & info [ "max-patterns" ] ~docv:"N" ~doc:"Per-request pattern-count cap.")
  in
  let max_seconds =
    Arg.(value & opt (positive_float ~what:"--max-seconds") Server.default_config.Server.max_seconds
         & info [ "max-seconds" ] ~docv:"SEC"
             ~doc:"Per-request wall-clock cap and default deadline; also bounds how long a \
                   drain can take.")
  in
  let max_request_evals =
    Arg.(value & opt (some (bounded_int ~what:"--max-request-evals" ~min:1 ())) None
         & info [ "max-request-evals" ] ~docv:"N"
             ~doc:"Per-request gate-evaluation cap and default budget.")
  in
  let global_max_evals =
    Arg.(value & opt (some (bounded_int ~what:"--global-max-evals" ~min:1 ())) None
         & info [ "global-max-evals" ] ~docv:"N"
             ~doc:"Whole-server gate-evaluation budget; once spent, run requests are \
                   rejected with an error response.")
  in
  let max_line_bytes =
    Arg.(value & opt (bounded_int ~what:"--max-line-bytes" ~min:2 ()) Server.default_config.Server.max_line_bytes
         & info [ "max-line-bytes" ] ~docv:"N"
             ~doc:"Reject request lines longer than $(docv) bytes.  The reader keeps at \
                   most $(docv)+1 bytes of a line, on stdin and sockets alike, and \
                   discards the rest of a longer one, so this also bounds the memory \
                   one line can take.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Append every observability event as one JSON line to $(docv) \
                   (flushed per event; also flushed on drain).")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket at $(docv) instead of serving \
                   stdin/stdout; connections are served concurrently until drain.")
  in
  let idle_timeout =
    Arg.(value & opt (some (positive_float ~what:"--idle-timeout")) None
         & info [ "idle-timeout" ] ~docv:"SEC"
             ~doc:"Reap socket connections that stay silent for $(docv) seconds with no \
                   work in flight, freeing their session thread (socket mode only; \
                   default: never).")
  in
  let data_dir =
    Arg.(value & opt (some string) None
         & info [ "data-dir" ] ~docv:"DIR"
             ~doc:"Durable state root: a write-ahead job journal, the persistent result \
                   cache and per-job checkpoints live under $(docv).  On start the server \
                   recovers whatever a previous process — even one killed with kill -9 — \
                   left behind: unfinished jobs are replayed (resuming from their \
                   checkpoints), completed results are served from the warm cache with \
                   'recovered':true.  Default: no durability (volatile serve).")
  in
  let ckpt_patterns =
    Arg.(value & opt (bounded_int ~what:"--checkpoint-patterns" ~min:0 ())
           Server.default_config.Server.ckpt_patterns
         & info [ "checkpoint-patterns" ] ~docv:"N"
             ~doc:"With --data-dir: jobs of at least $(docv) patterns write resumable \
                   checkpoints (smaller jobs are cheaper to re-run than to checkpoint).")
  in
  let ckpt_interval =
    Arg.(value & opt (bounded_int ~what:"--checkpoint-interval" ~min:1 ())
           Server.default_config.Server.ckpt_interval
         & info [ "checkpoint-interval" ] ~docv:"N"
             ~doc:"Checkpoint write throttle, in completed work units.")
  in
  let run queue executors cache max_patterns max_seconds max_request_evals global_max_evals
      max_line_bytes trace socket idle_timeout data_dir ckpt_patterns ckpt_interval
      chaos =
    guard @@ fun () ->
    let config =
      {
        Server.queue_capacity = queue;
        executors;
        max_patterns;
        max_seconds;
        max_request_evals;
        global_max_evals;
        max_line_bytes;
        cache_capacity = cache;
        idle_timeout_s = idle_timeout;
        chaos;
        data_dir;
        ckpt_patterns;
        ckpt_interval;
      }
    in
    (* A client closing its connection mid-response must never kill the
       server: with SIGPIPE ignored the failed write surfaces as EPIPE,
       which the serve loop turns into a cancelled session. *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    (* Mask SIGHUP/SIGINT/SIGTERM on this thread BEFORE creating the
       server: executor domains and session threads inherit the mask at
       spawn, so signals are delivered only to the sigwait thread
       below. *)
    let signals = [ Sys.sighup; Sys.sigint; Sys.sigterm ] in
    (try ignore (Thread.sigmask Unix.SIG_BLOCK signals : int list)
     with Invalid_argument _ | Unix.Unix_error _ ->
       failwith "serve needs Thread.sigmask to drain on SIGTERM; this platform has none");
    let trace_oc =
      Option.map
        (fun file -> open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644 file)
        trace
    in
    let t =
      Server.create ~config ?trace:(Option.map Obs.channel_sink trace_oc) ()
    in
    (* SIGHUP: maintenance (journal compaction, cache re-persist, stats
       snapshot to the trace sink) without dropping a single connection.
       First SIGTERM/SIGINT: stop admitting, finish queued and in-flight
       jobs (each bounded by its per-request deadline), flush, exit 0.
       Second SIGTERM/SIGINT: hard exit 130. *)
    ignore
      (Thread.create
         (fun () ->
           let drained = ref false in
           let rec loop () =
             let s = Thread.wait_signal signals in
             if s = Sys.sighup then begin
               Server.maintenance t;
               loop ()
             end
             else if not !drained then begin
               drained := true;
               Server.request_drain t;
               loop ()
             end
             else Stdlib.exit 130
           in
           loop ())
         ());
    (match socket with
    | Some path -> Server.serve_socket t path
    | None -> ignore (Server.serve_channels t stdin stdout : Server.stop));
    Server.shutdown t;
    Option.iter close_out trace_oc;
    `Ok 0
  in
  let doc =
    "Serve line-delimited JSONL fault-simulation requests (stdin/stdout or --socket) with \
     per-request limits, admission control and graceful drain.  One response line per \
     request line; see the README's Serving section for the protocol."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ queue $ executors $ cache $ max_patterns $ max_seconds
       $ max_request_evals $ global_max_evals $ max_line_bytes $ trace $ socket
       $ idle_timeout $ data_dir $ ckpt_patterns $ ckpt_interval $ chaos_arg))

(* --- circuits ------------------------------------------------------------------ *)

let circuits_cmd =
  let run () =
    List.iter
      (fun (name, f) ->
        let nl = f () in
        Format.printf "%-16s %3d gates, %2d inputs, %2d outputs, %4d transistors@." name
          (Netlist.n_gates nl)
          (List.length (Netlist.inputs nl))
          (List.length (Netlist.outputs nl))
          (Netlist.n_transistors nl))
      Catalog.builtin;
    `Ok 0
  in
  let doc = "List the built-in benchmark circuits." in
  Cmd.v (Cmd.info "circuits" ~doc) Term.(ret (const run $ const ()))

let () =
  let doc = "Fault modeling and random self test for dynamic MOS circuits (DAC'86)." in
  let info = Cmd.info "dynmos" ~version:"1.0.0" ~doc in
  (* eval': subcommands return their own exit code (faultsim uses 2 for
     partial results and 130 for an interrupted-but-flushed campaign). *)
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            faultlib_cmd;
            faultsim_cmd;
            protest_cmd;
            selftest_cmd;
            atpg_cmd;
            diagnose_cmd;
            serve_cmd;
            circuits_cmd;
          ]))

open Dynmos_util
open Dynmos_cell
open Dynmos_faultsim
open Dynmos_circuits
module Chaos = Dynmos_chaos.Chaos
module Scheduler = Parallel_exec.Scheduler

(* The chaos layer's contract is determinism: a spec plus a seed IS the
   failure schedule.  These tests pin the spec grammar, the per-point
   stream independence, the replay guarantee end-to-end through the
   serial engine, the hardening each injection point exposes (checkpoint
   fallback, scheduler watchdog), and a soak
   property over random schedules. *)

let check = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let chaos_of_spec spec =
  match Chaos.of_spec spec with
  | Ok c -> c
  | Error e -> Alcotest.failf "of_spec %S: %s" spec e

let fixture ?(seed = 3) ?(n_inputs = 6) ?(count = 60) () =
  let nl =
    Generators.random_monotone ~seed ~n_inputs ~n_gates:20
      ~technology:Technology.Domino_cmos ()
  in
  let u = Faultsim.universe nl in
  let prng = Prng.create (seed + 1000) in
  let pats = Faultsim.random_patterns prng ~n_inputs ~count in
  (u, pats)

let with_temp_checkpoint f =
  let path = Filename.temp_file "dynmos_chaos_ckpt" ".dat" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".bak"; Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) ])
    (fun () -> f path)

(* --- Spec grammar ------------------------------------------------------------- *)

let test_spec_roundtrip () =
  check "empty spec is the disabled registry" false (Chaos.enabled (chaos_of_spec ""));
  check_s "disabled prints as the empty spec" "" (Chaos.to_spec Chaos.disabled);
  let spec =
    "ckpt.write=fail_once,sched.task=fail_prob:0.25,serve.read=delay:5,cache.insert=torn_write,seed=7"
  in
  let c = chaos_of_spec spec in
  check "parsed spec is enabled" true (Chaos.enabled c);
  check_i "seed parsed" 7 (Chaos.seed c);
  (* to_spec is canonical: parsing its own output is a fixed point *)
  let canon = Chaos.to_spec c in
  check_s "canonical form round-trips" canon (Chaos.to_spec (chaos_of_spec canon))

let test_spec_errors () =
  let bad s = match Chaos.of_spec s with Error _ -> true | Ok _ -> false in
  check "unknown point" true (bad "bogus=fail_once");
  check "unknown action" true (bad "sched.task=explode");
  check "probability above 1" true (bad "sched.task=fail_prob:1.5");
  check "negative delay" true (bad "serve.read=delay:-1");
  check "seed without any point" true (bad "seed=3");
  check "unparsable seed" true (bad "sched.task=fail_once,seed=x")

(* --- Determinism of the injection streams ------------------------------------- *)

let decisions c p n = List.init n (fun _ -> Chaos.decide c p)

(* Each point draws from its own seeded stream, so point A's Nth
   decision cannot depend on how many times point B was tapped in
   between — the property that makes schedules replayable even when
   thread interleavings differ across runs. *)
let test_per_point_independence () =
  let plan =
    [ (Chaos.Sched_task, Chaos.Fail_prob 0.5); (Chaos.Exec_job, Chaos.Fail_prob 0.5) ]
  in
  let solo = decisions (Chaos.create ~seed:11 plan) Chaos.Sched_task 64 in
  let b = Chaos.create ~seed:11 plan in
  let interleaved =
    List.init 64 (fun _ ->
        let v = Chaos.decide b Chaos.Sched_task in
        ignore (Chaos.decide b Chaos.Exec_job : Chaos.verdict);
        v)
  in
  check "interleaving another point leaves the stream unchanged" true (solo = interleaved);
  check "the stream actually injects" true (List.exists (fun v -> v = Chaos.Fail) solo);
  check "the stream actually passes" true (List.exists (fun v -> v = Chaos.Pass) solo)

let test_fail_once () =
  let c = Chaos.create ~seed:1 [ (Chaos.Ckpt_write, Chaos.Fail_once) ] in
  check "first tap fails" true (Chaos.decide c Chaos.Ckpt_write = Chaos.Fail);
  check "subsequent taps pass" true
    (List.for_all (fun v -> v = Chaos.Pass) (decisions c Chaos.Ckpt_write 8));
  check_i "exactly one injection counted" 1 (Chaos.injected c);
  check "unconfigured points always pass" true
    (List.for_all (fun v -> v = Chaos.Pass) (decisions c Chaos.Serve_write 8))

(* --- Replay guarantee --------------------------------------------------------- *)

(* The acceptance bar: the same --chaos spec reproduces the same
   injection sequence AND the same final report across two runs. *)
let test_replay_identical () =
  let spec = "exec.job=fail_prob:0.3,seed=5" in
  let run () =
    let u, pats = fixture () in
    let c = chaos_of_spec spec in
    let s = Faultsim.run_serial ~drop:false ~chaos:c u pats in
    (c, s)
  in
  let c1, s1 = run () in
  let c2, s2 = run () in
  check "injections occurred at all" true (Chaos.injected c1 > 0);
  check "identical injection journal" true (Chaos.journal c1 = Chaos.journal c2);
  check "identical per-point counts" true (Chaos.counts c1 = Chaos.counts c2);
  check "identical outcome" true (s1.Faultsim.outcome = s2.Faultsim.outcome);
  check "identical detections" true
    (s1.Faultsim.first_detection = s2.Faultsim.first_detection)

(* --- Checkpoint hardening ----------------------------------------------------- *)

let test_stale_tmp_cleanup () =
  with_temp_checkpoint @@ fun path ->
  let stale = path ^ ".tmp.99999" in
  let oc = open_out stale in
  output_string oc "leftover from a crashed writer";
  close_out oc;
  let u, pats = fixture () in
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:5 u pats in
  check_i "stale tmp swept at campaign start" 1 (Checkpoint.stale_cleaned ctl);
  check "the leftover is gone" false (Sys.file_exists stale)

let test_backup_fallback () =
  with_temp_checkpoint @@ fun path ->
  let u, pats = fixture () in
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:5 u pats in
  ignore (Faultsim.run_serial ~drop:false ~checkpoint:ctl u pats : Faultsim.summary);
  check "rotation left a .bak" true (Sys.file_exists (path ^ ".bak"));
  let reference = Checkpoint.load (path ^ ".bak") in
  (* corrupt the primary: load_or_backup must fall back, not raise *)
  let oc = open_out_bin path in
  output_string oc "garbage, not a checkpoint";
  close_out oc;
  let st, used_backup = Checkpoint.load_or_backup path in
  check "fell back to .bak on a corrupt primary" true used_backup;
  check "fallback state parses to the rotated snapshot" true
    (st.Checkpoint.units_done = reference.Checkpoint.units_done);
  (* the mid-rotation window: no primary at all, only the .bak *)
  Sys.remove path;
  let _, used_backup = Checkpoint.load_or_backup path in
  check "fell back when the primary is missing entirely" true used_backup;
  (* both gone: the primary's own error must surface *)
  Sys.remove (path ^ ".bak");
  check "both missing still raises" true
    (match Checkpoint.load_or_backup path with
    | exception Checkpoint.Error _ -> true
    | _ -> false)

(* Checkpoint failure must never abort the simulation.  Three shapes:
   a one-shot torn write (simulated crash mid-file) is absorbed and the
   next interval publishes normally; a persistent write failure keeps
   the campaign alive with zero published files; and the torn tmp
   litter a crash leaves behind is swept by [cleanup_stale]. *)
let test_ckpt_chaos_absorbed () =
  with_temp_checkpoint @@ fun path ->
  let u, pats = fixture () in
  let torn = chaos_of_spec "ckpt.write=torn_write,seed=4" in
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:5 ~chaos:torn u pats in
  let s = Faultsim.run_serial ~drop:false ~checkpoint:ctl u pats in
  check "campaign completes over a torn checkpoint write" true
    (Outcome.is_complete s.Faultsim.outcome);
  check "the torn write was absorbed and counted" true (Checkpoint.failed_writes ctl > 0);
  check "later intervals published normally" true (Checkpoint.writes ctl > 0);
  check "a primary exists after recovery" true (Sys.file_exists path);
  (* persistent failure: every single write refused *)
  with_temp_checkpoint @@ fun path2 ->
  let dead = chaos_of_spec "ckpt.write=fail_prob:1,seed=4" in
  let ctl2 = Faultsim.checkpoint_ctl ~path:path2 ~interval:5 ~chaos:dead u pats in
  let s2 =
    Faultsim.run_serial ~drop:false ~checkpoint:ctl2 u pats
  in
  check "campaign completes under persistent checkpoint failure" true
    (Outcome.is_complete s2.Faultsim.outcome);
  check "every failure absorbed and counted" true (Checkpoint.failed_writes ctl2 > 1);
  (* a failed write is retried an interval later, not at every unit:
     one attempt per interval, plus [finalize]'s write and its retry *)
  check "failed writes bounded by the intervals" true
    (Checkpoint.failed_writes ctl2 <= ((Array.length pats + 4) / 5) + 2);
  check_i "nothing published" 0 (Checkpoint.writes ctl2);
  check "no primary on disk" false (Sys.file_exists path2);
  (* a torn save leaves its truncated tmp behind; the next campaign
     over that path sweeps it *)
  let st = Checkpoint.load path in
  with_temp_checkpoint @@ fun path3 ->
  check "torn save raises" true
    (match Checkpoint.save ~chaos:(chaos_of_spec "ckpt.write=torn_write,seed=1") path3 st with
    | exception Checkpoint.Error _ -> true
    | () -> false);
  check_i "the truncated tmp was left behind" 1 (Checkpoint.cleanup_stale path3)

(* --- Scheduler: chaos kills, watchdog respawn, cancel race -------------------- *)

(* The cancel/respawn race: tasks are being chaos-killed (claimed,
   re-enqueued for rescue, the executor domain dies and is respawned)
   while one client cancels.  The invariants: no task ever runs twice,
   every admitted task either runs exactly once or is reported cancelled
   (no leaked queue slot), the surviving client is fully served, and the
   watchdog keeps the pool alive. *)
let test_scheduler_cancel_respawn_race () =
  let chaos = chaos_of_spec "sched.task=fail_prob:0.5,seed=9" in
  let sched = Scheduler.create ~num_domains:2 ~capacity:256 ~chaos () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) @@ fun () ->
  let n = 40 in
  let ran0 = Array.make n 0 and ran1 = Array.make n 0 in
  let m = Mutex.create () in
  let submit client arr i =
    match
      Scheduler.submit sched ~client (fun () ->
          Mutex.lock m;
          arr.(i) <- arr.(i) + 1;
          Mutex.unlock m)
    with
    | `Ok _ -> true
    | `Full | `Closed -> false
  in
  let acc0 = ref 0 and acc1 = ref 0 in
  for i = 0 to n - 1 do
    if submit 0 ran0 i then incr acc0;
    if submit 1 ran1 i then incr acc1
  done;
  Thread.delay 0.02;
  let dropped = Scheduler.cancel sched ~client:0 in
  let sum a = Array.fold_left ( + ) 0 a in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while
    (sum ran1 < !acc1 || sum ran0 + dropped < !acc0)
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  check_i "surviving client saw every accepted task" !acc1 (sum ran1);
  check "no surviving-client task ran twice" true (Array.for_all (fun k -> k <= 1) ran1);
  check "no cancelled-client task ran twice" true (Array.for_all (fun k -> k <= 1) ran0);
  check_i "cancelled client's slots conserved (ran + dropped = admitted)" !acc0
    (sum ran0 + dropped);
  check "chaos actually killed executors" true (Chaos.injected chaos > 0);
  check "watchdog respawned killed executors" true (Scheduler.respawns sched > 0);
  check "the pool is still alive" true (Scheduler.live_workers sched >= 1)

(* --- Soak property ------------------------------------------------------------ *)

(* Random chaos schedules x random circuits through the serial engine
   with checkpointing armed: no schedule may hang the run (the qcheck
   driver itself is the timeout), and whenever the outcome is [Complete]
   the detections must be bit-identical to the chaos-free run.  Delays
   are 0 ms (a zero delay passes without sleeping) so the 100 cases
   stay fast. *)
let gen_schedule =
  QCheck2.Gen.(
    let point = oneofl [ "exec.job"; "ckpt.write"; "ckpt.rename"; "ckpt.fsync" ] in
    let action =
      oneof
        [
          return "fail_once";
          map (fun p -> Printf.sprintf "fail_prob:%.2f" p) (float_bound_inclusive 1.0);
          return "delay:0";
          return "torn_write";
        ]
    in
    let binding = map2 (fun p a -> p ^ "=" ^ a) point action in
    map2
      (fun bs seed -> String.concat "," (bs @ [ Printf.sprintf "seed=%d" seed ]))
      (list_size (int_range 1 3) binding)
      (int_range 0 10_000))

let qcheck_soak =
  QCheck2.Test.make
    ~name:"chaos soak: random schedules terminate; Complete => bit-identical" ~count:100
    QCheck2.Gen.(triple gen_schedule (int_range 0 5) (int_range 1 40))
    (fun (spec, cseed, npats) ->
      let u, pats = fixture ~seed:cseed ~n_inputs:5 ~count:npats () in
      let reference = Faultsim.run_serial ~drop:false u pats in
      let chaos =
        match Chaos.of_spec spec with
        | Ok c -> c
        | Error e -> QCheck2.Test.fail_reportf "generated a bad spec %S: %s" spec e
      in
      with_temp_checkpoint @@ fun path ->
      let ctl = Faultsim.checkpoint_ctl ~path ~interval:3 ~chaos u pats in
      let s =
        Faultsim.run_serial ~drop:false ~chaos ~checkpoint:ctl u pats
      in
      (match s.Faultsim.outcome with
      | Outcome.Complete ->
          if s.Faultsim.first_detection <> reference.Faultsim.first_detection then
            QCheck2.Test.fail_reportf "schedule %S changed a Complete run's detections"
              spec
      | Outcome.Partial _ -> ());
      true)

(* --- Suite -------------------------------------------------------------------- *)

let () =
  Alcotest.run "dynmos chaos"
    [
      ( "spec",
        [
          Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "per-point stream independence" `Quick
            test_per_point_independence;
          Alcotest.test_case "fail_once fires once" `Quick test_fail_once;
          Alcotest.test_case "replay guarantee end-to-end" `Quick test_replay_identical;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "stale tmp cleanup" `Quick test_stale_tmp_cleanup;
          Alcotest.test_case "corrupt primary falls back to .bak" `Quick
            test_backup_fallback;
          Alcotest.test_case "checkpoint chaos absorbed" `Quick test_ckpt_chaos_absorbed;
          Alcotest.test_case "scheduler cancel/respawn race" `Quick
            test_scheduler_cancel_respawn_race;
        ] );
      ("soak", [ QCheck_alcotest.to_alcotest qcheck_soak ]);
    ]

open Dynmos_server
open Dynmos_faultsim
open Dynmos_circuits
module Obs = Dynmos_obs.Obs
module Chaos = Dynmos_chaos.Chaos
module Prng = Dynmos_util.Prng

(* Durability tests: the write-ahead job journal, the persistent result
   cache, per-job checkpoints, and the whole kill -9 recovery story —
   a crash is simulated by writing exactly the on-disk state a killed
   process leaves (admits without dones, checkpoints, torn files) and
   asserting the next boot replays it to results bit-identical with a
   crash-free run. *)

let check = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* --- Helpers ------------------------------------------------------------------ *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error _ -> ()

let with_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The serve-loop limits the crash-simulation envelopes are parsed
   under; must match [durable_config] so a replayed envelope carries the
   same clamped deadline the live admission would have produced. *)
let limits =
  { Protocol.max_patterns = 4096; max_seconds = 30.0; max_request_evals = None }

let envelope_of line =
  match Protocol.parse_request ~limits ~known_circuit:Catalog.mem line with
  | Ok (Protocol.Run r) -> Protocol.run_envelope r
  | Ok _ -> Alcotest.fail "envelope_of: not a run request"
  | Error e -> Alcotest.failf "envelope_of: %s" e

let durable_config dir =
  {
    Server.default_config with
    Server.max_patterns = 4096;
    max_seconds = 30.0;
    executors = 1;
    data_dir = Some dir;
  }

(* One client session against an existing server (same idiom as
   test_server.ml). *)
let run_on t lines =
  let remaining = ref lines in
  let input () =
    match !remaining with
    | [] -> None
    | l :: rest ->
        remaining := rest;
        Some l
  in
  let m = Mutex.create () in
  let out = ref [] in
  let output s =
    Mutex.lock m;
    out := s :: !out;
    Mutex.unlock m
  in
  ignore (Server.serve t ~input ~output () : Server.stop);
  List.rev !out

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
let int_field name resp = match field name resp with Json.Int n -> n | _ -> -1

let bool_field name resp =
  match field name resp with Json.Bool b -> b | _ -> Alcotest.failf "%s not a bool" name

let float_field name resp =
  match field name resp with
  | Json.Float f -> f
  | Json.Int n -> float_of_int n
  | _ -> Alcotest.failf "%s not a number" name

let response_for n resps =
  match List.find_opt (fun r -> line_of r = n) resps with
  | Some r -> r
  | None -> Alcotest.failf "no response for line %d" n

let stat t name =
  match List.assoc_opt name (Server.stats_line t) with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "stats lack %S" name

(* Engine workload mirroring the server's exec path exactly: same PRNG
   construction, same pattern generation. *)
let workload name ~patterns ~seed =
  let nl = match Catalog.find name with Ok nl -> nl | Error e -> Alcotest.fail e in
  let u = Faultsim.universe nl in
  let prng = Prng.create seed in
  let pats =
    Faultsim.random_patterns prng
      ~n_inputs:(List.length (Dynmos_netlist.Netlist.inputs nl))
      ~count:patterns
  in
  (u, pats)

let evals_of events =
  List.fold_left
    (fun acc e ->
      if e.Obs.ev <> "faultsim.run" then acc
      else
        let get = Obs.int_field e in
        acc + (match get "gate_evals" with Some n -> n | None -> Option.value ~default:0 (get "evals")))
    0 events

let run_clean_serial u pats =
  let mem, fetch = Obs.memory_sink () in
  let s = Faultsim.run_serial ~drop:true ~obs:(Obs.make mem) u pats in
  (s, evals_of (fetch ()))

(* --- Journal -------------------------------------------------------------------- *)

let test_journal_roundtrip () =
  with_dir "dynmos_jnl" @@ fun dir ->
  let path = Filename.concat dir "journal" in
  let j = Journal.open_ path in
  check_i "fresh generation" 1 (Journal.generation j);
  let a = Journal.append_admit j ~envelope:{|{"op":"run","circuit":"fig5"}|} in
  let b = Journal.append_admit j ~envelope:{|{"op":"run","circuit":"carry8"}|} in
  let c = Journal.append_admit j ~envelope:{|{"op":"run","circuit":"fig9"}|} in
  check "jids ascend" true (a < b && b < c);
  Journal.append_done j ~jid:a ~status:"ok";
  Journal.append_done j ~jid:c ~status:"error";
  check_i "one pending" 1 (Journal.pending_count j);
  check "appends fsync'd" true (Journal.fsyncs j >= Journal.appends j);
  Journal.close j;
  (* Reopen: only the undone admit survives as recovery work. *)
  let j2 = Journal.open_ path in
  check_i "generation bumped" 2 (Journal.generation j2);
  check_i "no torn tail" 0 (Journal.truncated_tail j2);
  (match Journal.recovered j2 with
  | [ e ] ->
      check_i "pending jid" b e.Journal.jid;
      check_s "pending envelope" {|{"op":"run","circuit":"carry8"}|} e.Journal.envelope
  | l -> Alcotest.failf "expected 1 recovered entry, got %d" (List.length l));
  Journal.close j2

let test_journal_torn_tail () =
  with_dir "dynmos_jnl" @@ fun dir ->
  let path = Filename.concat dir "journal" in
  let j = Journal.open_ path in
  let a = Journal.append_admit j ~envelope:{|{"op":"run","circuit":"fig5"}|} in
  Journal.close j;
  (* kill -9 mid-append: half a record, no newline. *)
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc "deadbeef admit 1 {\"op\"";
  close_out oc;
  let j2 = Journal.open_ path in
  check_i "torn tail detected" 1 (Journal.truncated_tail j2);
  check_i "good prefix kept" 1 (Journal.pending_count j2);
  check_i "kept jid" a (List.hd (Journal.recovered j2)).Journal.jid;
  (* The truncation must leave a clean append point: new records land on
     their own lines and survive a further reopen. *)
  let b = Journal.append_admit j2 ~envelope:{|{"op":"run","circuit":"fig9"}|} in
  Journal.close j2;
  let j3 = Journal.open_ path in
  check_i "no torn tail after repair" 0 (Journal.truncated_tail j3);
  check_i "both pending" 2 (Journal.pending_count j3);
  check "fresh jid not reused" true (b > a);
  Journal.close j3

let test_journal_crc_rejects_corruption () =
  with_dir "dynmos_jnl" @@ fun dir ->
  let path = Filename.concat dir "journal" in
  let j = Journal.open_ path in
  ignore (Journal.append_admit j ~envelope:{|{"op":"run","circuit":"fig5"}|} : int);
  ignore (Journal.append_admit j ~envelope:{|{"op":"run","circuit":"fig9"}|} : int);
  Journal.close j;
  (* Flip one payload byte of the second admit record: its CRC fails and
     everything from there on is untrusted. *)
  let raw = read_file path in
  let idx = String.rindex raw 'f' in  (* the 'f' of the last "fig9" *)
  let mutated = Bytes.of_string raw in
  Bytes.set mutated idx 'X';
  write_file path (Bytes.to_string mutated);
  let j2 = Journal.open_ path in
  check_i "corrupt record truncated" 1 (Journal.truncated_tail j2);
  check_i "only the intact admit survives" 1 (Journal.pending_count j2);
  Journal.close j2

let test_journal_compaction () =
  with_dir "dynmos_jnl" @@ fun dir ->
  let path = Filename.concat dir "journal" in
  let j = Journal.open_ ~rotate_limit:8 path in
  let keep = Journal.append_admit j ~envelope:{|{"op":"run","circuit":"carry8"}|} in
  for _ = 1 to 20 do
    let jid = Journal.append_admit j ~envelope:{|{"op":"run","circuit":"fig5"}|} in
    Journal.append_done j ~jid ~status:"ok"
  done;
  check "auto-compacted" true (Journal.compactions j > 0);
  check_i "pending survives compaction" 1 (Journal.pending_count j);
  let gen = Journal.generation j in
  Journal.close j;
  (* The compacted segment must be small (completed pairs folded away)
     and reopen with the pending admit and the generation intact. *)
  check "segment shrank" true (String.length (read_file path) < 512);
  let j2 = Journal.open_ path in
  check_i "generation survives compaction" (gen + 1) (Journal.generation j2);
  check_i "pending jid survives" keep (List.hd (Journal.recovered j2)).Journal.jid;
  Journal.close j2;
  (* Forced compaction (the SIGHUP path) on a quiet journal. *)
  let j3 = Journal.open_ path in
  Journal.compact j3;
  check "forced compaction counted" true (Journal.compactions j3 >= 1);
  check_i "pending intact after force" 1 (Journal.pending_count j3);
  Journal.close j3

let test_journal_chaos_compact_crash () =
  with_dir "dynmos_jnl" @@ fun dir ->
  let path = Filename.concat dir "journal" in
  let j = Journal.open_ path in
  ignore (Journal.append_admit j ~envelope:{|{"op":"run","circuit":"fig5"}|} : int);
  Journal.close j;
  (* A compaction that dies mid-rewrite leaves the live segment
     untouched plus tmp garbage the next open sweeps. *)
  let chaos =
    match Chaos.of_spec "journal.compact=torn_write,seed=5" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let j2 = Journal.open_ ~chaos path in
  (match Journal.compact j2 with
  | () -> Alcotest.fail "torn compaction should raise"
  | exception Journal.Error _ -> ());
  check_i "segment intact after torn compaction" 1 (Journal.pending_count j2);
  Journal.close j2;
  let j3 = Journal.open_ path in
  check "stale compaction tmp swept" true (Journal.stale_cleaned j3 >= 1);
  check_i "pending intact" 1 (Journal.pending_count j3);
  Journal.close j3

(* --- Cache store ----------------------------------------------------------------- *)

let test_cache_store_roundtrip () =
  with_dir "dynmos_cache" @@ fun dir ->
  let u, pats = workload "fig5" ~patterns:16 ~seed:3 in
  let summary, evals = run_clean_serial u pats in
  let e =
    {
      Cache_store.key = "k|serial|cone|true";
      summary;
      dt_s = 0x1.9p-3;
      evals;
      n_sites = Faultsim.n_sites u;
    }
  in
  Cache_store.save dir e;
  let back = Cache_store.load (Cache_store.file_of dir e.Cache_store.key) in
  check_s "key" e.Cache_store.key back.Cache_store.key;
  check "summary bit-identical" true (back.Cache_store.summary = summary);
  check "dt_s exact" true (back.Cache_store.dt_s = e.Cache_store.dt_s);
  check_i "evals" evals back.Cache_store.evals;
  let entries, corrupt = Cache_store.load_all dir in
  check_i "one healthy entry" 1 (List.length entries);
  check_i "no corruption" 0 corrupt

let test_cache_store_quarantine () =
  with_dir "dynmos_cache" @@ fun dir ->
  let u, pats = workload "fig5" ~patterns:8 ~seed:1 in
  let summary, evals = run_clean_serial u pats in
  let entry key =
    { Cache_store.key; summary; dt_s = 0.5; evals; n_sites = Faultsim.n_sites u }
  in
  Cache_store.save dir (entry "healthy");
  (* A torn persist publishes a truncated file at the final name — the
     exact artifact the [cache.persist] chaos point injects. *)
  let chaos =
    match Chaos.of_spec "cache.persist=torn_write,seed=9" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  (match Cache_store.save ~chaos dir (entry "torn") with
  | () -> Alcotest.fail "torn persist should raise"
  | exception Cache_store.Error _ -> ());
  (* An entry renamed under the wrong name must not serve. *)
  Cache_store.save dir (entry "misplaced");
  Sys.rename
    (Cache_store.file_of dir "misplaced")
    (Filename.concat dir (String.make 32 '0' ^ ".entry"));
  let entries, corrupt = Cache_store.load_all dir in
  check_i "one healthy survives" 1 (List.length entries);
  check_s "the right one" "healthy" (List.hd entries).Cache_store.key;
  check_i "two quarantined" 2 corrupt;
  let corrupt_files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".corrupt")
  in
  check_i "quarantine artifacts kept" 2 (List.length corrupt_files);
  (* Quarantine is sticky: a rescan must not recount or resurrect. *)
  let entries2, corrupt2 = Cache_store.load_all dir in
  check_i "rescan stable (healthy)" 1 (List.length entries2);
  check_i "rescan stable (corrupt)" 0 corrupt2

(* --- Server: warm-restart cache ---------------------------------------------------- *)

let test_server_warm_restart_cache () =
  with_dir "dynmos_dur" @@ fun dir ->
  let req = {|{"circuit":"fig5","patterns":32,"seed":3}|} in
  let t1 = Server.create ~config:(durable_config dir) () in
  let cold =
    Fun.protect
      ~finally:(fun () -> Server.shutdown t1)
      (fun () ->
        let r = response_for 1 (run_on t1 [ req ]) in
        check_s "cold run ok" "ok" (status r);
        check "cold not cached" false (bool_field "cached" r);
        check "cold not recovered" false (bool_field "recovered" r);
        r)
  in
  (* Same data dir, new process: the result must come back from disk,
     bit-identical, with zero simulation. *)
  let t2 = Server.create ~config:(durable_config dir) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t2)
    (fun () ->
      check_i "cache rehydrated" 1 (stat t2 "cache_loaded");
      check_i "nothing quarantined" 0 (stat t2 "cache_corrupt_quarantined");
      check_i "second boot generation" 2 (stat t2 "restart_generation");
      let warm = response_for 1 (run_on t2 [ req ]) in
      check_s "warm run ok" "ok" (status warm);
      check "warm cached" true (bool_field "cached" warm);
      check "warm recovered" true (bool_field "recovered" warm);
      List.iter
        (fun f ->
          check (f ^ " bit-identical across restart") true
            (field f warm = field f cold))
        [ "coverage"; "detected"; "gate_evals"; "dt_s"; "sites" ])

(* --- Server: kill -9 recovery -------------------------------------------------------- *)

let test_server_recovers_journaled_job () =
  with_dir "dynmos_dur" @@ fun dir ->
  let req = {|{"circuit":"carry8","patterns":48,"seed":11}|} in
  (* The crashed process: the job was admitted (journaled) but never
     finished — no done record, no cache entry. *)
  let j = Journal.open_ (Filename.concat dir "journal") in
  ignore (Journal.append_admit j ~envelope:(envelope_of req) : int);
  Journal.close j;
  let u, pats = workload "carry8" ~patterns:48 ~seed:11 in
  let clean, _ = run_clean_serial u pats in
  let t = Server.create ~config:(durable_config dir) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      Server.wait_recovery t;
      check_i "journal drained" 0 (stat t "journal_pending");
      check_i "one job replayed" 1 (stat t "journal_recovered");
      check_i "second boot" 2 (stat t "restart_generation");
      (* The original client's retry: answered from the recovered state,
         bit-identical with a crash-free run. *)
      let r = response_for 1 (run_on t [ req ]) in
      check_s "retry ok" "ok" (status r);
      check "retry cached" true (bool_field "cached" r);
      check "retry flagged recovered" true (bool_field "recovered" r);
      check_i "detected = crash-free" (Faultsim.n_detected clean) (int_field "detected" r);
      check "coverage = crash-free" true
        (float_field "coverage" r = Faultsim.coverage clean))

(* Upgrade path: builds before the "algo" field was removed journaled it
   in every envelope ("cone" by default).  A job such a build left
   pending is rejected by today's schema, so boot must complete, close
   the job out with an error done record and drain the journal; the
   client's retry then runs fresh.  The journal is written by hand — its
   own CRC-32 — exactly as that build wrote it. *)
let test_server_recovery_pre_upgrade_envelope () =
  with_dir "dynmos_dur" @@ fun dir ->
  let crc32 s =
    let c = ref 0xffffffff in
    String.iter
      (fun ch ->
        c := !c lxor Char.code ch;
        for _ = 1 to 8 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done)
      s;
    !c lxor 0xffffffff
  in
  let record payload = Printf.sprintf "%08x %s\n" (crc32 payload) payload in
  let envelope =
    {|{"op":"run","circuit":"carry8","patterns":48,"seed":11,"engine":"serial","drop":true,"algo":"cone","deadline_s":30}|}
  in
  let path = Filename.concat dir "journal" in
  write_file path ("dynmos-journal v1\n" ^ record "gen 1" ^ record ("admit 0 " ^ envelope));
  let t = Server.create ~config:(durable_config dir) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      Server.wait_recovery t;
      check_i "journal drained" 0 (stat t "journal_pending");
      check_i "nothing replayed" 0 (stat t "journal_recovered");
      check "job closed out as error" true
        (List.mem (record "done 0 error")
           (List.map (fun l -> l ^ "\n") (String.split_on_char '\n' (read_file path))));
      let r =
        response_for 1 (run_on t [ {|{"circuit":"carry8","patterns":48,"seed":11}|} ])
      in
      check_s "retry ok" "ok" (status r);
      check "retry ran fresh" false (bool_field "cached" r))

let test_server_recovery_resumes_checkpoint () =
  with_dir "dynmos_dur" @@ fun dir ->
  let patterns = 64 and seed = 7 in
  let u, pats = workload "carry8" ~patterns ~seed in
  let clean, clean_evals = run_clean_serial u pats in
  (* The crashed campaign: ran under the server's checkpoint identity,
     died roughly halfway (eval budget stands in for kill -9 — both
     leave the same on-disk state: a valid checkpoint, no done record). *)
  let ident =
    String.concat "|"
      [
        Faultsim.circuit_digest u;
        Faultsim.universe_digest u;
        Faultsim.patterns_digest pats;
        "serial";
        "true";
      ]
  in
  let ckpt_dir = Filename.concat dir "ckpt" in
  Unix.mkdir ckpt_dir 0o755;
  let path = Filename.concat ckpt_dir (Digest.to_hex (Digest.string ident) ^ ".ckpt") in
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:1 u pats in
  let partial =
    Faultsim.run_serial ~drop:true ~max_evals:(clean_evals / 2) ~checkpoint:ctl
      u pats
  in
  (match partial.Faultsim.outcome with
  | Outcome.Partial _ -> ()
  | Outcome.Complete -> Alcotest.fail "budget was meant to stop the first run");
  check "first run made progress" true (partial.Faultsim.patterns_done > 0);
  let req = Printf.sprintf {|{"circuit":"carry8","patterns":%d,"seed":%d}|} patterns seed in
  let j = Journal.open_ (Filename.concat dir "journal") in
  ignore (Journal.append_admit j ~envelope:(envelope_of req) : int);
  Journal.close j;
  (* Reboot with per-job checkpointing on: recovery must resume the
     campaign, not restart it — strictly fewer evaluations than a cold
     run, identical detections. *)
  let config = { (durable_config dir) with Server.ckpt_patterns = 0; ckpt_interval = 1 } in
  let t = Server.create ~config () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      Server.wait_recovery t;
      check_i "journal drained" 0 (stat t "journal_pending");
      let r = response_for 1 (run_on t [ req ]) in
      check_s "retry ok" "ok" (status r);
      check "retry cached" true (bool_field "cached" r);
      check "retry flagged recovered" true (bool_field "recovered" r);
      check_i "detected = crash-free" (Faultsim.n_detected clean) (int_field "detected" r);
      check "coverage = crash-free" true
        (float_field "coverage" r = Faultsim.coverage clean);
      let resumed_evals = int_field "gate_evals" r in
      check "resumed, not restarted" true (resumed_evals > 0 && resumed_evals < clean_evals);
      (* A completed job's checkpoint is discarded. *)
      check "checkpoint removed on completion" false (Sys.file_exists path))

(* Upgrade path: an older build's domains engine swept sites and wrote
   [mode sites] job checkpoints.  Such a file is refused on load, so the
   job must discard it and rerun from scratch — never wedge. *)
let test_server_discards_sites_mode_checkpoint () =
  with_dir "dynmos_dur" @@ fun dir ->
  let patterns = 64 and seed = 7 in
  let u, pats = workload "carry8" ~patterns ~seed in
  let clean, _ = run_clean_serial u pats in
  let ckpt_dir = Filename.concat dir "ckpt" in
  Unix.mkdir ckpt_dir 0o755;
  let ident =
    String.concat "|"
      [
        Faultsim.circuit_digest u;
        Faultsim.universe_digest u;
        Faultsim.patterns_digest pats;
        "domains";
        "true";
      ]
  in
  let path = Filename.concat ckpt_dir (Digest.to_hex (Digest.string ident) ^ ".ckpt") in
  Legacy_checkpoint.write_sites_mode ~path u pats;
  check "the file is refused" true
    (match Checkpoint.load path with exception Checkpoint.Error _ -> true | _ -> false);
  let config = { (durable_config dir) with Server.ckpt_patterns = 0; ckpt_interval = 1 } in
  let t = Server.create ~config () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      let req =
        Printf.sprintf {|{"circuit":"carry8","patterns":%d,"seed":%d,"engine":"domains"}|}
          patterns seed
      in
      let r = response_for 1 (run_on t [ req ]) in
      check_s "job reran" "ok" (status r);
      check "ran fresh" false (bool_field "cached" r);
      check_i "detected = crash-free" (Faultsim.n_detected clean) (int_field "detected" r);
      check "old checkpoint gone" false (Sys.file_exists path))

(* Upgrade path for the result cache: an entry persisted under an older
   [job_ident] shape (here one still carrying the "algo" component) can
   never hit.  Boot must delete it instead of rehydrating it, and the
   repeat request runs fresh and leaves exactly one entry. *)
let test_server_removes_stale_cache_entries () =
  with_dir "dynmos_dur" @@ fun dir ->
  let u, pats = workload "carry8" ~patterns:64 ~seed:1 in
  let cache_dir = Filename.concat dir "cache" in
  Unix.mkdir cache_dir 0o755;
  let key =
    String.concat "|"
      [
        Faultsim.circuit_digest u;
        Faultsim.universe_digest u;
        Faultsim.patterns_digest pats;
        "ppsfp";
        "cone";
        "true";
      ]
  in
  Cache_store.save cache_dir
    {
      Cache_store.key;
      summary = Faultsim.run_ppsfp u pats;
      dt_s = 0.01;
      evals = 1;
      n_sites = Faultsim.n_sites u;
    };
  let stale = Cache_store.file_of cache_dir key in
  check "stale entry planted" true (Sys.file_exists stale);
  let t = Server.create ~config:(durable_config dir) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      check_i "nothing rehydrated" 0 (stat t "cache_loaded");
      check_i "stale entry counted" 1 (stat t "cache_stale_removed");
      check "stale file deleted" false (Sys.file_exists stale);
      let r =
        response_for 1
          (run_on t [ {|{"circuit":"carry8","patterns":64,"seed":1,"engine":"ppsfp"}|} ])
      in
      check_s "repeat ok" "ok" (status r);
      check "repeat ran fresh" false (bool_field "cached" r);
      let entries =
        List.filter
          (fun f -> Filename.check_suffix f ".entry")
          (Array.to_list (Sys.readdir cache_dir))
      in
      check_i "exactly one entry" 1 (List.length entries))

let test_server_journal_admission_gate () =
  with_dir "dynmos_dur" @@ fun dir ->
  (* Log-before-work: if the journal cannot take the admit record, the
     request is refused — never run undurable. *)
  let chaos =
    match Chaos.of_spec "journal.append=fail_once,seed=2" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let config = { (durable_config dir) with Server.chaos } in
  let t = Server.create ~config () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      let req = {|{"circuit":"fig5","patterns":8,"seed":1}|} in
      let resps = run_on t [ req; req ] in
      let r1 = response_for 1 resps and r2 = response_for 2 resps in
      check_s "unjournaled request refused" "error" (status r1);
      check "refusal names the journal" true
        (match field "error" r1 with
        | Json.String m ->
            (* the admission gate, not some engine failure *)
            String.length m >= 7 && String.sub m 0 7 = "journal"
        | _ -> false);
      check_s "journal recovered, next request runs" "ok" (status r2))

(* --- Domains-engine checkpoints under fire ------------------------------------------- *)

(* The multicore engine writes the same pattern-prefix checkpoints as
   every other engine, through the same driver; the .bak salvage and
   torn-write absorption must hold for it too. *)
let test_domains_checkpoint_backup_rotation () =
  with_dir "dynmos_ckpt" @@ fun dir ->
  let u, pats = workload "carry8" ~patterns:160 ~seed:5 in
  let clean = Faultsim.run_domain_parallel ~drop:true ~num_domains:2 u pats in
  let path = Filename.concat dir "domains.ckpt" in
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:1 u pats in
  let s = Faultsim.run_domain_parallel ~drop:true ~num_domains:2 ~checkpoint:ctl u pats in
  check "campaign complete" true (s.Faultsim.outcome = Outcome.Complete);
  check "interval 1 wrote repeatedly" true (Checkpoint.writes ctl >= 2);
  check "rotation left a backup" true (Sys.file_exists (path ^ ".bak"));
  (* Corrupt the primary mid-publish: recovery must fall back to the
     .bak and say so. *)
  let raw = read_file path in
  write_file path (String.sub raw 0 (String.length raw / 2));
  let st, from_bak = Checkpoint.load_or_backup path in
  check "salvaged from backup" true from_bak;
  check "pattern-prefix mode" true (st.Checkpoint.mode = Checkpoint.Patterns);
  let ctl2 = Faultsim.checkpoint_ctl ~path ~interval:1 ~resume:true u pats in
  check "controller records the backup source" true (Checkpoint.resumed_from_backup ctl2);
  let resumed = Faultsim.run_domain_parallel ~drop:true ~num_domains:2 ~checkpoint:ctl2 u pats in
  check "resume from .bak is bit-identical" true
    (resumed.Faultsim.first_detection = clean.Faultsim.first_detection);
  check_i "all sites final" (Faultsim.n_sites u) resumed.Faultsim.sites_done

let test_domains_checkpoint_torn_write_chaos () =
  with_dir "dynmos_ckpt" @@ fun dir ->
  let u, pats = workload "fig5" ~patterns:12 ~seed:4 in
  let clean = Faultsim.run_domain_parallel ~drop:true ~num_domains:2 u pats in
  let path = Filename.concat dir "domains.ckpt" in
  (* Pre-plant a stale tmp from a "crashed" writer; the controller must
     sweep it at creation. *)
  write_file (path ^ ".tmp.99999") "garbage";
  let chaos =
    match Chaos.of_spec "ckpt.write=torn_write,seed=3" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:1 ~chaos u pats in
  check "stale tmp swept" true (Checkpoint.stale_cleaned ctl >= 1);
  let s = Faultsim.run_domain_parallel ~drop:true ~num_domains:2 ~checkpoint:ctl u pats in
  check "torn write absorbed, campaign complete" true (s.Faultsim.outcome = Outcome.Complete);
  check "torn write counted" true (Checkpoint.failed_writes ctl >= 1);
  check "detections unaffected by chaos" true
    (s.Faultsim.first_detection = clean.Faultsim.first_detection);
  (* Whatever the chaos left behind, the published pair must still load. *)
  let st, _ = Checkpoint.load_or_backup path in
  check_i "final state is the full sweep" (Array.length pats) st.Checkpoint.units_done

(* --- QCheck soak: kill/restart under random chaos ---------------------------------- *)

(* Each iteration builds a crashed server's on-disk state (journaled
   admits without outcomes), then boots with a random chaos schedule
   armed over the durability points and asserts recovery still converges
   to coverage bit-identical with a chaos-free run.  The chaos points
   here are the absorb-and-continue ones; the fail-the-request semantics
   of [journal.append] has its own deterministic test above. *)
let qcheck_recovery_soak =
  let gen =
    QCheck2.Gen.(
      let circuit = oneofl [ "fig5"; "fig9"; "carry8" ] in
      let job = triple circuit (int_range 1 40) (int_range 0 99) in
      triple (list_size (int_range 1 3) job) (int_range 0 7) (int_range 1 1000))
  in
  QCheck2.Test.make ~count:12 ~name:"kill -9 recovery under random chaos schedules" gen
    (fun (jobs, chaos_bits, chaos_seed) ->
      with_dir "dynmos_soak" @@ fun dir ->
      let spec =
        let parts =
          List.filteri
            (fun i _ -> chaos_bits land (1 lsl i) <> 0)
            [
              "journal.fsync=fail_prob:0.5";
              "journal.compact=torn_write";
              "cache.persist=torn_write";
            ]
        in
        match parts with
        | [] -> ""
        | _ -> String.concat "," (parts @ [ Printf.sprintf "seed=%d" chaos_seed ])
      in
      let chaos =
        if spec = "" then Chaos.disabled
        else
          match Chaos.of_spec spec with
          | Ok c -> c
          | Error e -> QCheck2.Test.fail_reportf "bad generated spec %S: %s" spec e
      in
      let reqs =
        List.map
          (fun (c, p, s) ->
            Printf.sprintf {|{"circuit":%S,"patterns":%d,"seed":%d}|} c p s)
          jobs
      in
      (* The crash: all admitted, none finished. *)
      let j = Journal.open_ (Filename.concat dir "journal") in
      List.iter (fun r -> ignore (Journal.append_admit j ~envelope:(envelope_of r) : int)) reqs;
      Journal.close j;
      let config = { (durable_config dir) with Server.chaos } in
      let t = Server.create ~config () in
      Fun.protect
        ~finally:(fun () -> Server.shutdown t)
        (fun () ->
          Server.wait_recovery t;
          if stat t "journal_pending" <> 0 then
            QCheck2.Test.fail_reportf "spec %S left %d jobs pending" spec
              (stat t "journal_pending");
          let resps = run_on t reqs in
          List.iteri
            (fun i req ->
              let r = response_for (i + 1) resps in
              if status r <> "ok" then
                QCheck2.Test.fail_reportf "spec %S: %s -> %s" spec req r;
              let c, p, s =
                match List.nth jobs i with c, p, s -> (c, p, s)
              in
              let u, pats = workload c ~patterns:p ~seed:s in
              let clean, _ = run_clean_serial u pats in
              if
                int_field "detected" r <> Faultsim.n_detected clean
                || float_field "coverage" r <> Faultsim.coverage clean
              then
                QCheck2.Test.fail_reportf
                  "spec %S: recovered coverage diverges from chaos-free run on %s" spec req)
            reqs;
          true))

(* --- Maintenance (the SIGHUP hook) -------------------------------------------------- *)

let test_maintenance_compacts_and_repersists () =
  with_dir "dynmos_dur" @@ fun dir ->
  (* Every persist fails; maintenance later retries them with the chaos
     exhausted (fail_once semantics). *)
  let chaos =
    match Chaos.of_spec "cache.persist=fail_once,seed=6" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let config = { (durable_config dir) with Server.chaos } in
  let t = Server.create ~config () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      let r = response_for 1 (run_on t [ {|{"circuit":"fig5","patterns":16,"seed":2}|} ]) in
      check_s "run ok despite persist failure" "ok" (status r);
      check_i "persist failure counted" 1 (stat t "cache_persist_failed");
      check_i "nothing persisted yet" 0 (stat t "cache_persisted");
      Server.maintenance t;
      check_i "maintenance re-persisted the entry" 1 (stat t "cache_persisted");
      check "journal compacted" true (stat t "journal_compactions" >= 1));
  (* The re-persisted entry must be the one a restart loads. *)
  let t2 = Server.create ~config:(durable_config dir) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t2)
    (fun () -> check_i "repersisted entry survives restart" 1 (stat t2 "cache_loaded"))

(* --- Suite -------------------------------------------------------------------------- *)

let () =
  Alcotest.run "dynmos durability"
    [
      ( "journal",
        [
          Alcotest.test_case "round-trip and pending tracking" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail truncated on open" `Quick test_journal_torn_tail;
          Alcotest.test_case "CRC rejects corrupted records" `Quick
            test_journal_crc_rejects_corruption;
          Alcotest.test_case "compaction folds completed pairs" `Quick
            test_journal_compaction;
          Alcotest.test_case "torn compaction leaves segment intact" `Quick
            test_journal_chaos_compact_crash;
        ] );
      ( "cache store",
        [
          Alcotest.test_case "round-trip is exact" `Quick test_cache_store_roundtrip;
          Alcotest.test_case "corrupt entries quarantined" `Quick
            test_cache_store_quarantine;
        ] );
      ( "server recovery",
        [
          Alcotest.test_case "warm restart serves bit-identical cached results" `Quick
            test_server_warm_restart_cache;
          Alcotest.test_case "journaled job replayed after kill -9" `Quick
            test_server_recovers_journaled_job;
          Alcotest.test_case "pre-upgrade envelope closed out as error" `Quick
            test_server_recovery_pre_upgrade_envelope;
          Alcotest.test_case "recovery resumes from the job checkpoint" `Quick
            test_server_recovery_resumes_checkpoint;
          Alcotest.test_case "mode sites job checkpoint discarded" `Quick
            test_server_discards_sites_mode_checkpoint;
          Alcotest.test_case "stale cache entries removed at boot" `Quick
            test_server_removes_stale_cache_entries;
          Alcotest.test_case "admission refused when the journal cannot log" `Quick
            test_server_journal_admission_gate;
          Alcotest.test_case "SIGHUP maintenance compacts and re-persists" `Quick
            test_maintenance_compacts_and_repersists;
        ] );
      ( "domains checkpoint I/O",
        [
          Alcotest.test_case "load_or_backup salvages the .bak rotation" `Quick
            test_domains_checkpoint_backup_rotation;
          Alcotest.test_case "torn ckpt writes absorbed and counted" `Quick
            test_domains_checkpoint_torn_write_chaos;
        ] );
      ("soak", [ QCheck_alcotest.to_alcotest qcheck_recovery_soak ]);
    ]

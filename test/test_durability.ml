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

(* --- Identity bytes ------------------------------------------------------------ *)

let entry_files cache_dir =
  List.sort compare
    (List.filter
       (fun f -> Filename.check_suffix f ".entry")
       (Array.to_list (Sys.readdir cache_dir)))

(* Cache keys, cache file names and checkpoint names are built from the
   campaign digests, so a change to their bytes silently orphans every
   result and checkpoint persisted before it.  The other tests rebuild
   keys with the same functions and cannot see such a drift; these
   literals can. *)
let test_identity_bytes () =
  let pinned name ~circuit ~universe ~patterns ~restricted_sites ~restricted =
    let u, pats = workload name ~patterns:64 ~seed:7 in
    let ru = Faultsim.restrict_universe u ~gates:[ 0; 1; 2 ] in
    check_s (name ^ " circuit digest") circuit (Faultsim.circuit_digest u);
    check_s (name ^ " universe digest") universe (Faultsim.universe_digest u);
    check_s (name ^ " patterns digest") patterns (Faultsim.patterns_digest pats);
    check_i (name ^ " restricted sites") restricted_sites (Faultsim.n_sites ru);
    check_s (name ^ " restricted universe digest") restricted (Faultsim.universe_digest ru)
  in
  pinned "carry8" ~circuit:"f82e2109aa03c2eab66c12bdd28e4614"
    ~universe:"26f0597218404879eb91a9f98f182471" ~patterns:"9802d74595eb6acb88b754c27a9972c3"
    ~restricted_sites:18 ~restricted:"ef20c54c63e23ebe1ea780f93d376cd8";
  pinned "rand60" ~circuit:"b612a97d4eb696fead2aee8fd350a1cd"
    ~universe:"a89ef75a7a240e097c60ff4b6f5df8b9" ~patterns:"67b7de40e5bd6ff0ca7beb777c864d1a"
    ~restricted_sites:14 ~restricted:"bde2908c626c42a091723023043760f3";
  (* The file names a durable server writes for the same campaigns. *)
  with_dir "dynmos_dur" @@ fun dir ->
  let t = Server.create ~config:(durable_config dir) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      let cache_dir = Filename.concat dir "cache" in
      let req = {|{"circuit":"carry8","patterns":64,"seed":7,"engine":"ppsfp"}|} in
      check_s "unrestricted ok" "ok" (status (response_for 1 (run_on t [ req ])));
      check "unrestricted entry file" true
        (entry_files cache_dir = [ "a0802939a0abe65cb3a0a1cbebba0578.entry" ]);
      let req = {|{"circuit":"carry8","patterns":64,"seed":7,"engine":"ppsfp","gates":[0,1,2]}|} in
      check_s "restricted ok" "ok" (status (response_for 1 (run_on t [ req ])));
      check "restricted entry file" true
        (entry_files cache_dir
        = [ "a0802939a0abe65cb3a0a1cbebba0578.entry"; "c1f760b08ac6de696c5f9523772298b9.entry" ]))

(* --- Golden files -------------------------------------------------------------------- *)

(* Files the durable writers produced, pinned byte for byte under
   test/golden/, because data dirs and checkpoints written by one build
   must stay readable by the next: carry8_s7.ckpt and its .bak rotation
   (a carry8@64 seed-7 campaign after 64 and after 62 patterns, with a
   prng line), empty.ckpt (no sites, so its "first " line ends in a
   space), carry8_s7.entry (that campaign's cache entry, dt_s in %h) and
   journal (after one auto-compaction and one forced compaction). *)
let golden name =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) "golden" in
  Filename.concat (if Sys.file_exists beside then beside else "test/golden") name

let golden_files =
  [ "carry8_s7.ckpt"; "carry8_s7.ckpt.bak"; "empty.ckpt"; "carry8_s7.entry"; "journal" ]

let golden_run =
  lazy
    (let u, pats = workload "carry8" ~patterns:64 ~seed:7 in
     (u, pats, Faultsim.run_ppsfp u pats))

let golden_state ~units_done =
  let u, pats, s = Lazy.force golden_run in
  {
    Checkpoint.mode = Checkpoint.Patterns;
    circuit_digest = Faultsim.circuit_digest u;
    universe_digest = Faultsim.universe_digest u;
    pattern_digest = Faultsim.patterns_digest pats;
    n_sites = Faultsim.n_sites u;
    n_patterns = Array.length pats;
    units_done;
    first_detection =
      Array.map
        (function Some p when p < units_done -> Some p | _ -> None)
        s.Faultsim.first_detection;
    site_done = None;
    prng_state = Some (Prng.save (Prng.create 7));
  }

let golden_empty_state =
  {
    Checkpoint.mode = Checkpoint.Patterns;
    circuit_digest = String.make 32 'c';
    universe_digest = String.make 32 'a';
    pattern_digest = String.make 32 'b';
    n_sites = 0;
    n_patterns = 0;
    units_done = 0;
    first_detection = [||];
    site_done = None;
    prng_state = None;
  }

let golden_entry () =
  let u, pats, s = Lazy.force golden_run in
  {
    Cache_store.key =
      String.concat "|"
        [
          Faultsim.circuit_digest u;
          Faultsim.universe_digest u;
          Faultsim.patterns_digest pats;
          "ppsfp";
          "true";
        ];
    summary = s;
    dt_s = 0.1;
    evals = 1234;
    n_sites = Faultsim.n_sites u;
  }

let golden_envelope id = Printf.sprintf {|{"circuit":"carry8","id":"%s"}|} id

let write_golden dir =
  let ckpt = Filename.concat dir "carry8_s7.ckpt" in
  Checkpoint.save ckpt (golden_state ~units_done:62);
  Checkpoint.save ckpt (golden_state ~units_done:64);
  Checkpoint.save (Filename.concat dir "empty.ckpt") golden_empty_state;
  let e = golden_entry () in
  Cache_store.save dir e;
  Sys.rename (Cache_store.file_of dir e.Cache_store.key) (Filename.concat dir "carry8_s7.entry");
  let j = Journal.open_ ~rotate_limit:4 (Filename.concat dir "journal") in
  let a = Journal.append_admit j ~envelope:(golden_envelope "a") in
  ignore (Journal.append_admit j ~envelope:(golden_envelope "b"));
  (* the segment's fourth record: auto-compaction keeps gen and b *)
  Journal.append_done j ~jid:a ~status:"ok";
  ignore (Journal.append_admit j ~envelope:(golden_envelope "c"));
  Journal.compact j;
  ignore (Journal.append_admit j ~envelope:(golden_envelope "d"));
  Journal.close j

let test_golden_writers () =
  with_dir "dynmos_golden" @@ fun dir ->
  write_golden dir;
  List.iter
    (fun f ->
      check_s (f ^ " byte for byte") (read_file (golden f)) (read_file (Filename.concat dir f)))
    golden_files

let test_golden_readers () =
  let ckpt = Checkpoint.load (golden "carry8_s7.ckpt") in
  check_i "checkpoint units_done" 64 ckpt.Checkpoint.units_done;
  check_i "checkpoint sites" 48 ckpt.Checkpoint.n_sites;
  check "checkpoint values" true (ckpt = golden_state ~units_done:64);
  check "rotated checkpoint values" true
    (Checkpoint.load (golden "carry8_s7.ckpt.bak") = golden_state ~units_done:62);
  check "zero-site checkpoint values" true
    (Checkpoint.load (golden "empty.ckpt") = golden_empty_state);
  let e = Cache_store.load (golden "carry8_s7.entry") in
  check "cache entry dt_s exact" true (e.Cache_store.dt_s = 0.1);
  check "cache entry values" true (e = golden_entry ());
  with_dir "dynmos_golden" @@ fun dir ->
  let path = Filename.concat dir "journal" in
  write_file path (read_file (golden "journal"));
  let j = Journal.open_ path in
  Fun.protect
    ~finally:(fun () -> Journal.close j)
    (fun () ->
      check "journal pending admits" true
        (Journal.recovered j
        = List.map
            (fun (jid, id) -> { Journal.jid; envelope = golden_envelope id })
            [ (1, "b"); (2, "c"); (3, "d") ]);
      check_i "journal generation" 2 (Journal.generation j);
      check_i "journal intact" 0 (Journal.truncated_tail j))

(* The on-disk state each durable chaos point leaves: what the .bak
   fallback, the stale-tmp sweep and boot quarantine are built to
   absorb. *)
let test_chaos_artifacts () =
  with_dir "dynmos_chaos" @@ fun dir ->
  let chaos spec = match Chaos.of_spec spec with Ok c -> c | Error e -> Alcotest.fail e in
  let files () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let raises f =
    match f () with
    | () -> false
    | exception (Checkpoint.Error _ | Cache_store.Error _ | Journal.Error _) -> true
  in
  let is_tmp ~of_ f = String.starts_with ~prefix:(of_ ^ ".tmp.") f in
  let ckpt = Filename.concat dir "ck" and st = golden_state ~units_done:64 in
  let bytes = read_file (golden "carry8_s7.ckpt") in
  check "ckpt.write fail raises" true
    (raises (fun () -> Checkpoint.save ~chaos:(chaos "ckpt.write=fail_once") ckpt st));
  check "ckpt.write fail leaves no file" true (files () = []);
  check "ckpt.write torn raises" true
    (raises (fun () -> Checkpoint.save ~chaos:(chaos "ckpt.write=torn_write") ckpt st));
  (match files () with
  | [ f ] when is_tmp ~of_:"ck" f ->
      check_s "ckpt.write torn leaves half a tmp"
        (String.sub bytes 0 (String.length bytes / 2))
        (read_file (Filename.concat dir f))
  | _ -> Alcotest.fail "ckpt.write torn must leave exactly one tmp");
  check_i "the sweep removes it" 1 (Checkpoint.cleanup_stale ckpt);
  Checkpoint.save ~chaos:(chaos "ckpt.fsync=fail_once") ckpt st;
  check_s "ckpt.fsync skips the sync and still publishes" bytes (read_file ckpt);
  check "ckpt.rename raises" true
    (raises (fun () -> Checkpoint.save ~chaos:(chaos "ckpt.rename=fail_once") ckpt st));
  check "ckpt.rename drops the tmp after the rotation" true (files () = [ "ck.bak" ]);
  let e = golden_entry () in
  let entry = Cache_store.file_of dir e.Cache_store.key in
  check "cache.persist fail raises" true
    (raises (fun () -> Cache_store.save ~chaos:(chaos "cache.persist=fail_once") dir e));
  check "cache.persist fail writes nothing" false (Sys.file_exists entry);
  check "cache.persist torn raises" true
    (raises (fun () -> Cache_store.save ~chaos:(chaos "cache.persist=torn_write") dir e));
  let e_bytes = read_file (golden "carry8_s7.entry") in
  check_s "cache.persist torn leaves half the entry at the final name"
    (String.sub e_bytes 0 (String.length e_bytes / 2))
    (read_file entry);
  let path = Filename.concat dir "journal" in
  write_file path (read_file (golden "journal"));
  let j = Journal.open_ ~chaos:(chaos "journal.compact=torn_write") path in
  let segment = read_file path in
  check "journal.compact torn raises" true (raises (fun () -> Journal.compact j));
  Journal.close j;
  check_s "journal.compact torn leaves the segment intact" segment (read_file path);
  check "journal.compact torn leaves a truncated tmp" true
    (List.exists (is_tmp ~of_:"journal") (files ()))

(* --- Decoder fuzzers ----------------------------------------------------------------- *)

(* Seeded mutation fuzzers over the durable decoders, starting from the
   golden files: duplicated, deleted or swapped lines, byte flips, huge,
   negative or non-numeric values, and truncation.  Most mutants get a
   recomputed checksum (per-record CRCs for the journal), so that field
   decoding is reached.  Each input must raise the module's Error or
   decode to a value a writer can produce; any other exception fails the
   property. *)

let crc32_hex s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  Printf.sprintf "%08x" (!c lxor 0xffffffff)

let gen_mutated_lines lines =
  let open QCheck2.Gen in
  let pick l = int_bound (max 0 (List.length l - 1)) in
  let value =
    oneofl
      [ "-1"; "-"; "x"; ""; "0"; "1"; "20"; "63"; "64"; "65"; "100000"; "0x10"; "nan";
        "4611686018427387903"; "99999999999999999999" ]
  in
  let set_value l =
    let+ i = pick l and+ v = value and+ w = int_bound 63 in
    List.mapi
      (fun j line ->
        let words = Array.of_list (String.split_on_char ' ' line) in
        if j <> i || Array.length words < 2 then line
        else (
          words.(1 + (w mod (Array.length words - 1))) <- v;
          String.concat " " (Array.to_list words)))
      l
  in
  let delete l =
    let+ i = pick l in
    List.filteri (fun j _ -> j <> i) l
  in
  let duplicate l =
    let+ i = pick l in
    List.concat (List.mapi (fun j x -> if j = i then [ x; x ] else [ x ]) l)
  in
  let swap l =
    let+ i = pick l and+ k = pick l in
    List.mapi (fun j x -> if j = i then List.nth l k else if j = k then List.nth l i else x) l
  in
  let flip l =
    let+ i = pick l and+ c = char and+ p = nat in
    List.mapi
      (fun j line ->
        if j <> i || line = "" then line
        else String.mapi (fun q x -> if q = p mod String.length line then c else x) line)
      l
  in
  let rec go k l =
    if k = 0 || l = [] then return l
    else oneof [ set_value l; set_value l; delete l; duplicate l; swap l; flip l ] >>= go (k - 1)
  in
  int_range 1 3 >>= fun k -> go k lines

(* Raw damage after re-encoding: most mutants pass through, some are
   truncated or get a flipped byte, so the checksum or CRC fails. *)
let gen_damaged text =
  let open QCheck2.Gen in
  frequency
    [
      (6, return text);
      (1, map (fun i -> String.sub text 0 i) (int_bound (String.length text)));
      ( 1,
        let+ i = int_bound (max 0 (String.length text - 1)) and+ c = char in
        String.mapi (fun q x -> if q = i then c else x) text );
    ]

let gen_record_mutant base =
  let open QCheck2.Gen in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' base) in
  let trailer = List.nth lines (List.length lines - 1) in
  let* lines = gen_mutated_lines (List.filteri (fun i _ -> i < List.length lines - 1) lines)
  and* resum = frequency [ (4, return true); (1, return false) ] in
  let body = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  gen_damaged
    (body ^ (if resum then "checksum " ^ Digest.to_hex (Digest.string body) else trailer) ^ "\n")

let gen_journal_mutant base =
  let open QCheck2.Gen in
  let header, payloads =
    match List.filter (fun l -> l <> "") (String.split_on_char '\n' base) with
    | h :: records -> (h, List.map (fun r -> String.sub r 9 (String.length r - 9)) records)
    | [] -> assert false
  in
  let* lines =
    gen_mutated_lines
      ((header :: payloads) @ [ "gen 2"; "done 2 ok"; {|admit 4 {"circuit":"fig9"}|} ])
  in
  gen_damaged
    (String.concat ""
       (List.mapi (fun i l -> if i = 0 then l ^ "\n" else crc32_hex l ^ " " ^ l ^ "\n") lines))

let checkpoint_ok (st : Checkpoint.state) =
  st.n_sites >= 0 && 0 <= st.units_done && st.units_done <= st.n_patterns
  && Array.length st.first_detection = st.n_sites
  && Array.for_all
       (function None -> true | Some p -> 0 <= p && p < st.units_done)
       st.first_detection

let entry_ok (e : Cache_store.entry) =
  let s = e.Cache_store.summary in
  s.Faultsim.n_sites >= 0
  && 0 <= s.Faultsim.patterns_done
  && s.Faultsim.patterns_done <= s.Faultsim.n_patterns
  && 0 <= s.Faultsim.sites_done
  && s.Faultsim.sites_done <= s.Faultsim.n_sites
  && Array.length s.Faultsim.first_detection = s.Faultsim.n_sites
  && Array.for_all
       (function None -> true | Some p -> 0 <= p && p < s.Faultsim.patterns_done)
       s.Faultsim.first_detection
  && Float.is_finite e.Cache_store.dt_s && e.Cache_store.dt_s >= 0.0
  && e.Cache_store.evals >= 0 && e.Cache_store.n_sites >= 0

let run_fuzz test = QCheck2.Test.check_exn ~rand:(Random.State.make [| 24 |]) test

let test_record_fuzz () =
  with_dir "dynmos_fuzz" @@ fun dir ->
  let path = Filename.concat dir "mutant" in
  let bases =
    List.map
      (fun f -> (Filename.check_suffix f ".entry", read_file (golden f)))
      [ "carry8_s7.ckpt"; "carry8_s7.ckpt.bak"; "empty.ckpt"; "carry8_s7.entry" ]
  in
  run_fuzz
    (QCheck2.Test.make ~name:"mutated checkpoints and cache entries" ~count:1000
       ~print:(fun (_, text) -> String.escaped text)
       QCheck2.Gen.(
         let* entry, base = oneofl bases in
         pair (return entry) (gen_record_mutant base))
       (fun (entry, text) ->
         write_file path text;
         if entry then
           match Cache_store.load path with
           | e -> entry_ok e
           | exception Cache_store.Error _ -> true
         else
           match Checkpoint.load path with
           | st -> checkpoint_ok st
           | exception Checkpoint.Error _ -> true))

let test_journal_fuzz () =
  with_dir "dynmos_fuzz" @@ fun dir ->
  let path = Filename.concat dir "journal" in
  let base = read_file (golden "journal") in
  run_fuzz
    (QCheck2.Test.make ~name:"mutated journal segments" ~count:300 ~print:String.escaped
       (gen_journal_mutant base) (fun text ->
         write_file path text;
         match Journal.open_ path with
         | exception Journal.Error _ -> true
         | j ->
             (* Replayed jids are distinct, ascending and below the next
                one handed out; the open leaves a clean segment that a
                second open replays unchanged. *)
             let recovered = Journal.recovered j in
             let jids = List.map (fun e -> e.Journal.jid) recovered in
             let fresh = Journal.append_admit j ~envelope:"{}" in
             Journal.close j;
             let j2 = Journal.open_ path in
             Fun.protect
               ~finally:(fun () -> Journal.close j2)
               (fun () ->
                 List.for_all (fun jid -> 0 <= jid && jid < fresh) jids
                 && List.sort_uniq compare jids = jids
                 && Journal.generation j >= 1
                 && Journal.generation j2 = Journal.generation j + 1
                 && Journal.truncated_tail j2 = 0
                 && Journal.recovered j2
                    = recovered @ [ { Journal.jid = fresh; envelope = "{}" } ])))

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

(* A kill -9 mid-persist leaves a writer's tmp in cache/ or ckpt/; the
   next boot deletes both and still serves the entry beside them. *)
let test_server_sweeps_stale_tmp () =
  with_dir "dynmos_dur" @@ fun dir ->
  let req = {|{"circuit":"fig5","patterns":32,"seed":3}|} in
  let t1 = Server.create ~config:(durable_config dir) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t1)
    (fun () -> check_s "cold run ok" "ok" (status (response_for 1 (run_on t1 [ req ]))));
  let litter =
    List.map (Filename.concat dir) [ "cache/0123.entry.tmp.4242"; "ckpt/abcd.ckpt.tmp.4242" ]
  in
  List.iter (fun p -> write_file p "torn") litter;
  let t2 = Server.create ~config:(durable_config dir) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t2)
    (fun () ->
      List.iter (fun p -> check (Filename.basename p ^ " swept") false (Sys.file_exists p)) litter;
      check "entry still cached" true (bool_field "cached" (response_for 1 (run_on t2 [ req ]))))

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
   in every envelope ("cone" by default), builds before the "group"
   field was removed journaled it in every ppsfp envelope that set it,
   and builds before the "parallel" and "domains" engines were removed
   journaled those names.  A job such a build left pending is rejected
   by today's schema, so boot must complete, close the job out with an
   error done record and drain the journal; the client's retry (naming
   [engine], or no engine when it is absent) then runs fresh.  The
   journal is written by hand — its own CRC-32 — exactly as that build
   wrote it. *)
let pre_upgrade_envelope_closed_out ?engine envelope =
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
      let engine_field = Option.fold ~none:"" ~some:(Printf.sprintf {|,"engine":"%s"|}) engine in
      let r =
        response_for 1
          (run_on t
             [ Printf.sprintf {|{"circuit":"carry8","patterns":48,"seed":11%s}|} engine_field ])
      in
      check_s "retry ok" "ok" (status r);
      check "retry ran fresh" false (bool_field "cached" r))

let test_server_recovery_pre_upgrade_envelope () =
  pre_upgrade_envelope_closed_out ~engine:"serial"
    {|{"op":"run","circuit":"carry8","patterns":48,"seed":11,"engine":"serial","drop":true,"algo":"cone","deadline_s":30}|};
  pre_upgrade_envelope_closed_out ~engine:"ppsfp"
    {|{"op":"run","circuit":"carry8","patterns":48,"seed":11,"engine":"ppsfp","group":16,"drop":true,"deadline_s":30}|};
  pre_upgrade_envelope_closed_out
    {|{"op":"run","circuit":"carry8","patterns":48,"seed":11,"engine":"domains","jobs":2,"drop":true,"deadline_s":30}|}

let test_server_recovery_resumes_checkpoint () =
  with_dir "dynmos_dur" @@ fun dir ->
  let patterns = 64 and seed = 7 in
  let u, pats = workload "carry8" ~patterns ~seed in
  let ckpt_dir = Filename.concat dir "ckpt" in
  Unix.mkdir ckpt_dir 0o755;
  (* Each crashed campaign ran under the server's checkpoint identity and
     died roughly halfway (eval budget stands in for kill -9 — both
     leave the same on-disk state: a valid checkpoint, no done record).
     A [gates] job's identity pairs the circuit's digest with its own
     restricted universe's. *)
  let crash ju req =
    let mem, fetch = Obs.memory_sink () in
    let clean = Faultsim.run_ppsfp ~drop:true ~obs:(Obs.make mem) ju pats in
    let clean_evals = evals_of (fetch ()) in
    let ident =
      String.concat "|"
        [
          Faultsim.circuit_digest u;
          Faultsim.universe_digest ju;
          Faultsim.patterns_digest pats;
          "ppsfp";
          "true";
        ]
    in
    let path = Filename.concat ckpt_dir (Digest.to_hex (Digest.string ident) ^ ".ckpt") in
    let ctl = Faultsim.checkpoint_ctl ~path ~interval:1 ju pats in
    let partial =
      Faultsim.run_ppsfp ~drop:true ~max_evals:(clean_evals / 2) ~checkpoint:ctl ju pats
    in
    (match partial.Faultsim.outcome with
    | Outcome.Partial _ -> ()
    | Outcome.Complete -> Alcotest.fail "budget was meant to stop the first run");
    check "first run made progress" true (partial.Faultsim.patterns_done > 0);
    check "first run rotated a .bak" true (Sys.file_exists (path ^ ".bak"));
    (req, ju, clean, clean_evals, path)
  in
  let jobs =
    [
      crash u (Printf.sprintf {|{"circuit":"carry8","patterns":%d,"seed":%d}|} patterns seed);
      crash
        (Faultsim.restrict_universe u ~gates:[ 0; 1; 2 ])
        (Printf.sprintf {|{"circuit":"carry8","patterns":%d,"seed":%d,"gates":[0,1,2]}|}
           patterns seed);
    ]
  in
  let j = Journal.open_ (Filename.concat dir "journal") in
  List.iter
    (fun (req, _, _, _, _) -> ignore (Journal.append_admit j ~envelope:(envelope_of req) : int))
    jobs;
  Journal.close j;
  (* Reboot with per-job checkpointing on: recovery must resume each
     campaign, not restart it — strictly fewer evaluations than a cold
     run, identical detections. *)
  let config = { (durable_config dir) with Server.ckpt_patterns = 0; ckpt_interval = 1 } in
  let t = Server.create ~config () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      Server.wait_recovery t;
      check_i "journal drained" 0 (stat t "journal_pending");
      List.iter
        (fun (req, ju, clean, clean_evals, path) ->
          let r = response_for 1 (run_on t [ req ]) in
          check_s "retry ok" "ok" (status r);
          check "retry cached" true (bool_field "cached" r);
          check "retry flagged recovered" true (bool_field "recovered" r);
          check_i "sites" (Faultsim.n_sites ju) (int_field "sites" r);
          check_i "detected = crash-free" (Faultsim.n_detected clean) (int_field "detected" r);
          check "coverage = crash-free" true
            (float_field "coverage" r = Faultsim.coverage clean);
          let resumed_evals = int_field "gate_evals" r in
          check "resumed, not restarted" true (resumed_evals > 0 && resumed_evals < clean_evals);
          (* A completed job's checkpoint is discarded, with its rotation. *)
          check "checkpoint removed on completion" false (Sys.file_exists path);
          check "checkpoint .bak removed on completion" false (Sys.file_exists (path ^ ".bak")))
        jobs)

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
        "ppsfp";
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
        Printf.sprintf {|{"circuit":"carry8","patterns":%d,"seed":%d,"engine":"ppsfp"}|}
          patterns seed
      in
      let r = response_for 1 (run_on t [ req ]) in
      check_s "job reran" "ok" (status r);
      check "ran fresh" false (bool_field "cached" r);
      check_i "detected = crash-free" (Faultsim.n_detected clean) (int_field "detected" r);
      check "old checkpoint gone" false (Sys.file_exists path))

(* Upgrade path for the result cache: an entry persisted under an older
   [job_ident] shape (one still carrying the "algo" component, or one
   keyed by the removed "parallel" or "domains" engine) can never hit.
   Boot must delete it instead of rehydrating it, and the repeat request
   runs fresh and leaves exactly one entry. *)
let test_server_removes_stale_cache_entries () =
  with_dir "dynmos_dur" @@ fun dir ->
  let u, pats = workload "carry8" ~patterns:64 ~seed:1 in
  let cache_dir = Filename.concat dir "cache" in
  Unix.mkdir cache_dir 0o755;
  let digests =
    [ Faultsim.circuit_digest u; Faultsim.universe_digest u; Faultsim.patterns_digest pats ]
  in
  let summary = Faultsim.run_ppsfp u pats in
  let stale =
    List.map
      (fun tail ->
        let key = String.concat "|" (digests @ tail) in
        Cache_store.save cache_dir
          { Cache_store.key; summary; dt_s = 0.01; evals = 1; n_sites = Faultsim.n_sites u };
        Cache_store.file_of cache_dir key)
      [ [ "ppsfp"; "cone"; "true" ]; [ "parallel"; "true" ]; [ "domains"; "true" ] ]
  in
  check "stale entries planted" true (List.for_all Sys.file_exists stale);
  let t = Server.create ~config:(durable_config dir) () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      check_i "nothing rehydrated" 0 (stat t "cache_loaded");
      check_i "stale entries counted" 3 (stat t "cache_stale_removed");
      check "stale files deleted" false (List.exists Sys.file_exists stale);
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

(* The cache directory is bounded by the LRU: an evicted entry's file is
   deleted, live or at boot, so a restart re-reads only what the cache
   can hold — and holds the most recent results. *)
let test_server_cache_dir_bounded () =
  with_dir "dynmos_dur" @@ fun dir ->
  let config = { (durable_config dir) with Server.cache_capacity = 2 } in
  let cache_dir = Filename.concat dir "cache" in
  let reqs =
    List.init 5 (fun i -> Printf.sprintf {|{"circuit":"carry8","patterns":32,"seed":%d}|} (i + 1))
  in
  let t = Server.create ~config () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t)
    (fun () ->
      let resps = run_on t reqs in
      List.iteri (fun i _ -> check_s "job ok" "ok" (status (response_for (i + 1) resps))) reqs;
      check_i "three evictions" 3 (stat t "cache_evictions"));
  check_i "two entry files" 2 (List.length (entry_files cache_dir));
  let t2 = Server.create ~config () in
  Fun.protect
    ~finally:(fun () -> Server.shutdown t2)
    (fun () ->
      check_i "two entries loaded" 2 (stat t2 "cache_loaded");
      List.iter
        (fun req ->
          check "recent job cached after restart" true
            (bool_field "cached" (response_for 1 (run_on t2 [ req ]))))
        [ List.nth reqs 3; List.nth reqs 4 ]);
  let t3 = Server.create ~config:{ config with Server.cache_capacity = 1 } () in
  Server.shutdown t3;
  check_i "a smaller boot deletes what it evicts" 1 (List.length (entry_files cache_dir));
  let t4 = Server.create ~config:{ config with Server.cache_capacity = 0 } () in
  Server.shutdown t4;
  check_i "a boot with caching off deletes every entry" 0 (List.length (entry_files cache_dir))

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
  let clean = Faultsim.run_ppsfp ~drop:true ~num_domains:2 u pats in
  let path = Filename.concat dir "domains.ckpt" in
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:1 u pats in
  let s = Faultsim.run_ppsfp ~drop:true ~num_domains:2 ~checkpoint:ctl u pats in
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
  let resumed = Faultsim.run_ppsfp ~drop:true ~num_domains:2 ~checkpoint:ctl2 u pats in
  check "resume from .bak is bit-identical" true
    (resumed.Faultsim.first_detection = clean.Faultsim.first_detection);
  check_i "all sites final" (Faultsim.n_sites u) resumed.Faultsim.sites_done

let test_domains_checkpoint_torn_write_chaos () =
  with_dir "dynmos_ckpt" @@ fun dir ->
  let u, pats = workload "fig5" ~patterns:12 ~seed:4 in
  let clean = Faultsim.run_ppsfp ~drop:true ~num_domains:2 u pats in
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
  let s = Faultsim.run_ppsfp ~drop:true ~num_domains:2 ~checkpoint:ctl u pats in
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
      ( "identity",
        [ Alcotest.test_case "digests and cache file names pinned" `Quick test_identity_bytes ] );
      ( "golden files",
        [
          Alcotest.test_case "writers reproduce the golden bytes" `Quick test_golden_writers;
          Alcotest.test_case "readers return the pinned values" `Quick test_golden_readers;
          Alcotest.test_case "chaos points leave their artifacts" `Quick test_chaos_artifacts;
        ] );
      ( "decoder fuzz",
        [
          Alcotest.test_case "checkpoints and cache entries" `Quick test_record_fuzz;
          Alcotest.test_case "journal segments" `Quick test_journal_fuzz;
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
          Alcotest.test_case "stale tmp files swept at boot" `Quick test_server_sweeps_stale_tmp;
          Alcotest.test_case "cache directory bounded by the LRU" `Quick
            test_server_cache_dir_bounded;
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

(* Campaign checkpoints: serialize fault-simulation progress to a
   versioned file so an interrupted run (crash, SIGINT, deadline) can be
   resumed bit-identically instead of being thrown away.

   Design constraints:
   - *atomic*: the state is written to a sibling temporary file and
     published with [Sys.rename], so a reader never observes a
     half-written checkpoint, even if the writer is killed mid-write;
   - *self-validating*: a trailing MD5 checksum over the payload detects
     truncation or corruption at load time (a torn tmp file left behind
     by a crash is never the published checkpoint);
   - *digest-pinned*: the circuit, fault-universe and pattern digests of
     the producing campaign are stored, and resume refuses to continue
     against different ones — silently mixing campaigns would produce
     confidently wrong coverage;
   - *engine-neutral*: every engine sweeps patterns in ascending units
     and checkpoints "patterns 0..K done for every site", so any engine
     resumes any engine's file.  Files from older builds whose domains
     engine swept sites ([mode sites]) are refused by name.

   The format is deliberately plain text (one [key value] line each, the
   detection array space-separated) rather than [Marshal]: it survives
   compiler upgrades, is inspectable with [cat], and parsing failures
   produce named errors instead of segfaults. *)

module Chaos = Dynmos_chaos.Chaos

exception Error of string

let version = 1

type mode = Patterns

let mode_name Patterns = "patterns"

type state = {
  mode : mode;
  circuit_digest : string;
  universe_digest : string;
  pattern_digest : string;
  n_sites : int;
  n_patterns : int;
  units_done : int;
  first_detection : int option array;
  site_done : bool array option;
  prng_state : string option;
}

let fail fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt

(* --- Serialization ---------------------------------------------------------- *)

let payload st =
  let buf = Buffer.create (256 + (8 * st.n_sites)) in
  let line fmt = Format.kasprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "dynmos-checkpoint v%d" version;
  line "mode %s" (mode_name st.mode);
  line "circuit %s" st.circuit_digest;
  line "universe %s" st.universe_digest;
  line "patterns %s" st.pattern_digest;
  line "n_sites %d" st.n_sites;
  line "n_patterns %d" st.n_patterns;
  line "units_done %d" st.units_done;
  (match st.prng_state with Some s -> line "prng %s" s | None -> ());
  line "first %s"
    (String.concat " "
       (Array.to_list
          (Array.map (function None -> "-" | Some p -> string_of_int p) st.first_detection)));
  Buffer.contents buf

let save ?(chaos = Chaos.disabled) path st =
  let body = payload st in
  let body = body ^ Printf.sprintf "checksum %s\n" (Digest.to_hex (Digest.string body)) in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  (match Chaos.decide chaos Chaos.Ckpt_write with
  | Chaos.Pass -> ()
  | Chaos.Fail -> fail "checkpoint: injected write failure for %s" tmp
  | Chaos.Torn ->
      (* Simulate a crash mid-write: a truncated tmp file stays behind
         (its checksum can never validate), exactly what [cleanup_stale]
         and the [.bak] fallback exist to absorb. *)
      let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
      output_string oc (String.sub body 0 (String.length body / 2));
      close_out_noerr oc;
      fail "checkpoint: injected torn write to %s" tmp);
  let oc =
    try open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
    with Sys_error msg -> fail "checkpoint: cannot write %s: %s" tmp msg
  in
  (try
     output_string oc body;
     flush oc;
     (* fsync before rename: without it a power loss can publish a name
        pointing at data the disk never received — the classic torn-rename
        window.  An injected fsync fault silently skips the sync (the
        write still "works"), modeling exactly that window. *)
     (match Chaos.decide chaos Chaos.Ckpt_fsync with
     | Chaos.Pass -> (
         try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ())
     | Chaos.Fail | Chaos.Torn -> ());
     close_out oc
   with Sys_error msg ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     fail "checkpoint: short write to %s: %s" tmp msg);
  (* Rotate the last good checkpoint to [.bak] before publishing, so a
     later corruption of the primary still leaves a resumable state. *)
  (if Sys.file_exists path then try Sys.rename path (path ^ ".bak") with Sys_error _ -> ());
  (match Chaos.decide chaos Chaos.Ckpt_rename with
  | Chaos.Pass -> ()
  | Chaos.Fail | Chaos.Torn ->
      (try Sys.remove tmp with Sys_error _ -> ());
      fail "checkpoint: injected rename failure publishing %s" path);
  try Sys.rename tmp path
  with Sys_error msg ->
    (try Sys.remove tmp with Sys_error _ -> ());
    fail "checkpoint: cannot publish %s: %s" path msg

let load path =
  let ic =
    try open_in_bin path with Sys_error msg -> fail "checkpoint: cannot read %s: %s" path msg
  in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* split the trailing checksum line off and verify it first: any
     truncation or bit-rot is reported as such, not as a parse error *)
  let body, sum =
    match String.rindex_opt (String.trim raw) '\n' with
    | None -> fail "checkpoint %s: not a checkpoint file" path
    | Some i ->
        let raw = String.trim raw in
        (String.sub raw 0 (i + 1), String.sub raw (i + 1) (String.length raw - i - 1))
  in
  (match String.split_on_char ' ' sum with
  | [ "checksum"; hex ] ->
      if not (String.equal hex (Digest.to_hex (Digest.string body))) then
        fail "checkpoint %s: checksum mismatch (truncated or corrupted file)" path
  | _ -> fail "checkpoint %s: missing checksum line (truncated file?)" path);
  let lines = String.split_on_char '\n' body |> List.filter (fun l -> l <> "") in
  let kv =
    List.map
      (fun l ->
        match String.index_opt l ' ' with
        | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
        | None -> (l, ""))
      lines
  in
  let get k =
    match List.assoc_opt k kv with
    | Some v -> v
    | None -> fail "checkpoint %s: missing field %S" path k
  in
  let get_int k =
    match int_of_string_opt (get k) with
    | Some n -> n
    | None -> fail "checkpoint %s: field %S is not an integer (%S)" path k (get k)
  in
  (match get "dynmos-checkpoint" with
  | "v1" -> ()
  | v -> fail "checkpoint %s: unsupported version %s (this build reads v%d)" path v version);
  let mode =
    match get "mode" with
    | "patterns" -> Patterns
    | "sites" ->
        fail
          "checkpoint %s: mode sites was written by the site-sweep domains engine of an \
           older build and cannot be resumed; rerun the campaign"
          path
    | m -> fail "checkpoint %s: unknown mode %S" path m
  in
  let n_sites = get_int "n_sites" in
  let n_patterns = get_int "n_patterns" in
  let units_done = get_int "units_done" in
  if n_sites < 0 || n_patterns < 0 || units_done < 0 then
    fail "checkpoint %s: negative counts" path;
  let first_detection =
    let words =
      String.split_on_char ' ' (get "first") |> List.filter (fun w -> w <> "") |> Array.of_list
    in
    if Array.length words <> n_sites then
      fail "checkpoint %s: %d detection entries for %d sites" path (Array.length words) n_sites;
    Array.map
      (fun w ->
        if w = "-" then None
        else
          match int_of_string_opt w with
          | Some p when p >= 0 && p < n_patterns -> Some p
          | Some p -> fail "checkpoint %s: detection index %d out of range" path p
          | None -> fail "checkpoint %s: bad detection entry %S" path w)
      words
  in
  {
    mode;
    circuit_digest = get "circuit";
    universe_digest = get "universe";
    pattern_digest = get "patterns";
    n_sites;
    n_patterns;
    units_done;
    first_detection;
    site_done = None;
    prng_state = List.assoc_opt "prng" kv;
  }

let load_or_backup path =
  (* Reject-then-fallback: a corrupt (or mid-rotation missing) primary
     does not kill the resume when the previous snapshot is still valid.
     The primary's own error is preserved when both fail — it names the
     file the user asked about. *)
  match load path with
  | st -> (st, false)
  | exception Error primary_err -> (
      match load (path ^ ".bak") with
      | st -> (st, true)
      | exception Error _ -> raise (Error primary_err))

let cleanup_stale path =
  (* Remove [<path>.tmp.<pid>] leftovers from writers that crashed between
     opening the tmp file and publishing it.  Called when a campaign
     starts or resumes; by construction no live writer for [path] exists
     then, so every matching sibling is garbage. *)
  let dir = Filename.dirname path in
  let prefix = Filename.basename path ^ ".tmp." in
  let plen = String.length prefix in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | entries ->
      Array.fold_left
        (fun n entry ->
          if String.length entry > plen && String.sub entry 0 plen = prefix then (
            try
              Sys.remove (Filename.concat dir entry);
              n + 1
            with Sys_error _ -> n)
          else n)
        0 entries

(* --- Controllers ------------------------------------------------------------- *)

(* The mutable handle threaded into the engines.  [tick] throttles writes
   to every [interval] completed patterns; [finalize] always writes.
   Only the campaign driver's sweeping domain calls either. *)
type ctl = {
  path : string;
  interval : int;
  circuit_digest : string;
  universe_digest : string;
  pattern_digest : string;
  n_sites : int;
  n_patterns : int;
  prng_state : string option;
  resume : state option;
  resumed_from_backup : bool;
  chaos : Chaos.t;
  mutable last_units : int;
  mutable writes : int;
  mutable failed_writes : int;
  stale_cleaned : int;
}

let create ~path ~interval ?prng_state ?resume ?(resumed_from_backup = false)
    ?(chaos = Chaos.disabled) ~circuit_digest ~universe_digest ~pattern_digest ~n_sites
    ~n_patterns () =
  if interval < 1 then fail "checkpoint: interval must be >= 1 (got %d)" interval;
  let stale_cleaned = cleanup_stale path in
  (match (resume : state option) with
  | Some st ->
      if st.n_sites <> n_sites then
        fail "checkpoint %s: has %d sites, campaign has %d" path st.n_sites n_sites;
      if st.n_patterns <> n_patterns then
        fail "checkpoint %s: campaign length %d patterns, this run has %d" path st.n_patterns
          n_patterns;
      let pin what saved fresh =
        if not (String.equal saved fresh) then
          fail
            "checkpoint %s: %s digest mismatch (%s vs %s) — refusing to resume against a \
             different %s"
            path what saved fresh what
      in
      pin "circuit" st.circuit_digest circuit_digest;
      pin "universe" st.universe_digest universe_digest;
      pin "pattern" st.pattern_digest pattern_digest
  | None -> ());
  {
    path;
    interval;
    circuit_digest;
    universe_digest;
    pattern_digest;
    n_sites;
    n_patterns;
    prng_state;
    resume;
    resumed_from_backup;
    chaos;
    last_units = (match resume with Some st -> st.units_done | None -> 0);
    writes = 0;
    failed_writes = 0;
    stale_cleaned;
  }

let resume_state ctl = ctl.resume
let resumed_from_backup ctl = ctl.resumed_from_backup
let interval ctl = ctl.interval
let path ctl = ctl.path
let writes ctl = ctl.writes
let failed_writes ctl = ctl.failed_writes
let stale_cleaned ctl = ctl.stale_cleaned

let write ctl ~units_done ~first_detection =
  let st =
    {
      mode = Patterns;
      circuit_digest = ctl.circuit_digest;
      universe_digest = ctl.universe_digest;
      pattern_digest = ctl.pattern_digest;
      n_sites = ctl.n_sites;
      n_patterns = ctl.n_patterns;
      units_done;
      first_detection = Array.copy first_detection;
      site_done = None;
      prng_state = ctl.prng_state;
    }
  in
  save ~chaos:ctl.chaos ctl.path st;
  ctl.last_units <- units_done;
  ctl.writes <- ctl.writes + 1

let tick ctl ~units_done ~first_detection =
  units_done - ctl.last_units >= ctl.interval
  &&
  (* A failed interval write must not abort the campaign: the simulation
     result is unaffected, [last_units] stays put so the next tick
     retries, and the failure is counted for stats. *)
  match write ctl ~units_done ~first_detection with
  | () -> true
  | exception Error _ ->
      ctl.failed_writes <- ctl.failed_writes + 1;
      false

let finalize ctl ~units_done ~first_detection =
  match write ctl ~units_done ~first_detection with
  | () -> ()
  | exception Error _ -> (
      (* One retry clears transient faults (an injected fail_once, a full
         tmpfs racing a cleanup); a persistent failure is absorbed and
         counted — the campaign's in-memory result is intact and the
         previous [.bak] remains resumable. *)
      ctl.failed_writes <- ctl.failed_writes + 1;
      match write ctl ~units_done ~first_detection with
      | () -> ()
      | exception Error _ -> ctl.failed_writes <- ctl.failed_writes + 1)

(* Write-ahead job journal for the serve loop.  See journal.mli for the
   contracts.

   Format (plain text, one record per line — same transparency rationale
   as lib/faultsim/checkpoint.ml):

     dynmos-journal v1
     <crc32> gen <N>
     <crc32> admit <jid> <envelope-json>
     <crc32> done <jid> <status>

   where <crc32> is eight lowercase hex digits over the rest of the line
   (exclusive of the separating space and the newline).  The CRC is per
   record, not per file, because the file is append-only: a whole-file
   checksum would have to be rewritten on every append, which is exactly
   the non-atomic tail this format exists to survive.

   Recovery semantics: a record is durable once its line — CRC, payload,
   trailing newline — is fully on disk.  On open, the file is scanned
   from the top; the first line that is missing its newline, fails its
   CRC or does not parse marks the torn tail, and the file is truncated
   back to the last good record (kill -9 mid-append loses at most the
   record being appended, which was never acknowledged).  Everything
   after a torn record is unreachable by construction — appends are
   serialized under one mutex, so bytes after a half-written record can
   only be garbage from a pre-crash filesystem reordering, and trusting
   them would replay corrupt envelopes.

   Compaction rewrites the segment as header + latest generation +
   pending admits (completed pairs are dropped) and publishes it with
   [Durable.publish], the checkpoints' tmp + fsync + rename: a crash
   mid-compaction leaves the original segment untouched plus a stale
   tmp that the next open sweeps. *)

module Chaos = Dynmos_chaos.Chaos
module Durable = Dynmos_durable.Durable

exception Error = Durable.Error

let fail = Durable.fail

let version = 1
let header = Printf.sprintf "dynmos-journal v%d" version

(* --- CRC-32 (IEEE 802.3, the zlib polynomial) ------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xffffffff

let crc_hex s = Printf.sprintf "%08x" (crc32 s)

(* --- Types ------------------------------------------------------------------- *)

type entry = { jid : int; envelope : string }

type t = {
  path : string;
  chaos : Chaos.t;
  rotate_limit : int;
  lock : Mutex.t;
  mutable oc : out_channel option;     (* None after [close] *)
  mutable next_jid : int;
  pending : (int, string) Hashtbl.t;   (* jid -> envelope, admits without a done *)
  mutable records : int;               (* records in the current segment *)
  generation : int;
  mutable appends : int;
  mutable fsyncs : int;
  mutable compactions : int;
  truncated_tail : int;
  stale_cleaned : int;
}

(* --- Record encoding ---------------------------------------------------------- *)

let encode payload = crc_hex payload ^ " " ^ payload

(* A record payload parses to one of the three kinds, or is rejected. *)
type record = Gen of int | Admit of int * string | Done of int * string

(* Generations and jids are counters the writer starts at 1 and 0.  A
   value it cannot have written — negative, or [max_int], whose
   successor wraps — is as corrupt as a failed CRC. *)
let counter s =
  match int_of_string_opt s with Some n when n >= 0 && n < max_int -> Some n | _ -> None

let parse_record line =
  (* "<8 hex> <payload>" with a matching CRC *)
  if String.length line < 10 || line.[8] <> ' ' then None
  else
    let crc = String.sub line 0 8 in
    let payload = String.sub line 9 (String.length line - 9) in
    if not (String.equal crc (crc_hex payload)) then None
    else
      match String.split_on_char ' ' payload with
      | "gen" :: [ n ] -> Option.map (fun n -> Gen n) (counter n)
      | "admit" :: jid :: (_ :: _ as rest) ->
          Option.map (fun jid -> Admit (jid, String.concat " " rest)) (counter jid)
      | [ "done"; jid; status ] -> Option.map (fun jid -> Done (jid, status)) (counter jid)
      | _ -> None

(* --- Open / recovery ----------------------------------------------------------- *)

(* Scan an existing segment: validate the header, replay records until
   the torn tail (if any), and report where the good prefix ends.
   Returns (good_bytes, generation, pending, max_jid, records, tail_torn). *)
let scan path =
  let raw = Durable.read ~what:"journal" path in
  let len = String.length raw in
  let hlen = String.length header in
  if len < hlen + 1 || not (String.equal (String.sub raw 0 hlen) header) || raw.[hlen] <> '\n'
  then fail "journal %s: bad header (not a dynmos-journal v%d file)" path version;
  let pending = Hashtbl.create 16 in
  let generation = ref 0 in
  let max_jid = ref (-1) in
  let records = ref 0 in
  let pos = ref (hlen + 1) in
  let good = ref !pos in
  let torn = ref false in
  while (not !torn) && !pos < len do
    match String.index_from_opt raw !pos '\n' with
    | None -> torn := true (* no newline: the appender died mid-record *)
    | Some nl -> (
        let line = String.sub raw !pos (nl - !pos) in
        match parse_record line with
        | None -> torn := true (* CRC or shape failure: trust nothing beyond *)
        | Some r ->
            (match r with
            | Gen g -> generation := max !generation g
            | Admit (jid, envelope) ->
                Hashtbl.replace pending jid envelope;
                max_jid := max !max_jid jid
            | Done (jid, _) -> Hashtbl.remove pending jid);
            incr records;
            pos := nl + 1;
            good := !pos)
  done;
  (!good, !generation, pending, !max_jid, !records, !torn)

let fsync_oc t oc =
  match Chaos.decide t.chaos Chaos.Journal_fsync with
  | Chaos.Fail | Chaos.Torn -> ()
  | Chaos.Pass -> (
      (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
      t.fsyncs <- t.fsyncs + 1)

let with_oc t f =
  match t.oc with None -> fail "journal %s: closed" t.path | Some oc -> f oc

(* Append one already-encoded record line under the lock, honouring the
   [journal.append] point: Fail raises before any byte is written; Torn
   writes half the line with no newline — the on-disk artifact of a
   kill -9 mid-append — and then raises.  [tap:false] skips the
   injection point: the boot-time generation stamp is bookkeeping, not
   admitted client work, and must not consume a one-shot armed against
   admission. *)
let append_record ?(tap = true) t payload =
  with_oc t @@ fun oc ->
  let line = encode payload in
  (match (if tap then Chaos.decide t.chaos Chaos.Journal_append else Chaos.Pass) with
  | Chaos.Pass -> ()
  | Chaos.Fail -> fail "journal %s: injected append failure" t.path
  | Chaos.Torn ->
      output_string oc (String.sub line 0 (String.length line / 2));
      flush oc;
      fail "journal %s: injected torn append" t.path);
  (try
     output_string oc line;
     output_char oc '\n';
     flush oc
   with Sys_error msg -> fail "journal %s: append failed: %s" t.path msg);
  fsync_oc t oc;
  t.appends <- t.appends + 1;
  t.records <- t.records + 1

(* --- Compaction ----------------------------------------------------------------- *)

let pending_list t =
  Hashtbl.fold (fun jid envelope acc -> { jid; envelope } :: acc) t.pending []
  |> List.sort (fun a b -> compare a.jid b.jid)

let compact_locked t =
  with_oc t @@ fun old_oc ->
  let entries = pending_list t in
  let records =
    Printf.sprintf "gen %d" t.generation
    :: List.map (fun { jid; envelope } -> Printf.sprintf "admit %d %s" jid envelope) entries
  in
  (* A crash mid-compaction ([journal.compact] Torn) leaves the truncated
     replacement only under its tmp name: the live segment is untouched,
     and the next open sweeps the garbage. *)
  Durable.publish ~chaos:t.chaos ~write:Chaos.Journal_compact ~what:"journal" t.path
    (String.concat "" (List.map (fun l -> l ^ "\n") (header :: List.map encode records)));
  (* The old channel points at an unlinked inode; all future appends go
     to the fresh segment. *)
  close_out_noerr old_oc;
  t.oc <- Some (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 t.path);
  t.records <- 1 + List.length entries;
  t.compactions <- t.compactions + 1

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let compact t = locked t (fun () -> compact_locked t)

(* --- API ------------------------------------------------------------------------ *)

let open_ ?(chaos = Chaos.disabled) ?(rotate_limit = 1024) path =
  if rotate_limit < 2 then fail "journal: rotate_limit must be >= 2 (got %d)" rotate_limit;
  let stale_cleaned = Durable.sweep_stale path in
  let fresh = not (Sys.file_exists path) in
  let good, generation, pending, max_jid, records, torn =
    if fresh then (0, 0, Hashtbl.create 16, -1, 0, false) else scan path
  in
  (* Truncate the torn tail before reopening for append: the half-record
     must not prefix the next append into a corrupt line. *)
  if torn then begin
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> Unix.ftruncate fd good)
  end;
  let oc =
    try open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path
    with Sys_error msg -> fail "journal: cannot open %s: %s" path msg
  in
  if fresh then begin
    output_string oc (header ^ "\n");
    flush oc
  end;
  let t =
    {
      path;
      chaos;
      rotate_limit;
      lock = Mutex.create ();
      oc = Some oc;
      next_jid = max_jid + 1;
      pending;
      records;
      generation = generation + 1;
      appends = 0;
      fsyncs = 0;
      compactions = 0;
      truncated_tail = (if torn then 1 else 0);
      stale_cleaned;
    }
  in
  (* Stamp this boot.  The generation record is ordinary — CRC'd,
     fsync'd — so [generation] survives compaction and restarts count
     monotonically. *)
  locked t (fun () -> append_record ~tap:false t (Printf.sprintf "gen %d" t.generation));
  t

let recovered t = locked t (fun () -> pending_list t)

let append_admit t ~envelope =
  if String.contains envelope '\n' then
    invalid_arg "Journal.append_admit: envelope must be a single line";
  locked t (fun () ->
      let jid = t.next_jid in
      (* Reserve the id even if the append fails: a retry must not reuse
         a jid that may half-exist in the torn tail. *)
      t.next_jid <- jid + 1;
      append_record t (Printf.sprintf "admit %d %s" jid envelope);
      Hashtbl.replace t.pending jid envelope;
      jid)

let append_done t ~jid ~status =
  if String.contains status ' ' || String.contains status '\n' then
    invalid_arg "Journal.append_done: status must be a single word";
  locked t (fun () ->
      append_record t (Printf.sprintf "done %d %s" jid status);
      Hashtbl.remove t.pending jid;
      (* Rotation: once the segment has accumulated [rotate_limit]
         records, fold the completed pairs away.  Only when compaction
         would actually shrink the segment — a journal that is all
         pending admits is already minimal, and rewriting it on every
         done would be quadratic. *)
      if t.records >= t.rotate_limit && Hashtbl.length t.pending * 2 < t.records then
        match compact_locked t with
        | () -> ()
        | exception Error _ -> () (* failed auto-compaction: segment intact, retry later *))

let close t =
  locked t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
          close_out_noerr oc;
          t.oc <- None)

let generation t = t.generation
let pending_count t = locked t (fun () -> Hashtbl.length t.pending)
let appends t = locked t (fun () -> t.appends)
let fsyncs t = locked t (fun () -> t.fsyncs)
let compactions t = locked t (fun () -> t.compactions)
let truncated_tail t = t.truncated_tail
let stale_cleaned t = t.stale_cleaned

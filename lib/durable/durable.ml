(* Crash-safe files for checkpoints, cache entries and journal
   compactions.  See durable.mli.

   The record format is deliberately plain text (one [key value] line
   each) rather than [Marshal]: it survives compiler upgrades, is
   inspectable with [cat], and parsing failures produce named errors
   instead of segfaults.  The trailing MD5 over the payload makes a
   record self-validating: a torn tmp file left behind by a crash can
   never pass for a published one. *)

module Chaos = Dynmos_chaos.Chaos

exception Error of string

let fail fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt

(* --- Records ------------------------------------------------------------------- *)

let encode ~header fields =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%s\n" header;
  List.iter (fun (k, v) -> Printf.bprintf buf "%s %s\n" k v) fields;
  Printf.bprintf buf "checksum %s\n" (Digest.to_hex (Digest.string (Buffer.contents buf)));
  Buffer.contents buf

let first_to_string first =
  String.concat " "
    (Array.to_list (Array.map (function None -> "-" | Some p -> string_of_int p) first))

type record = { name : string; fields : (string * string) list }

let read ~what path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> fail "%s %s: cannot read: %s" what path msg

let load ~what ~header path =
  let name = what ^ " " ^ path in
  let raw = String.trim (read ~what path) in
  (* split the trailing checksum line off and verify it first: any
     truncation or bit-rot is reported as such, not as a parse error *)
  let body, sum =
    match String.rindex_opt raw '\n' with
    | None -> fail "%s: truncated (no checksum line)" name
    | Some i -> (String.sub raw 0 (i + 1), String.sub raw (i + 1) (String.length raw - i - 1))
  in
  (match String.split_on_char ' ' sum with
  | [ "checksum"; hex ] ->
      if not (String.equal hex (Digest.to_hex (Digest.string body))) then
        fail "%s: checksum mismatch (truncated or corrupted file)" name
  | _ -> fail "%s: missing checksum line (truncated file?)" name);
  match String.split_on_char '\n' body |> List.filter (fun l -> l <> "") with
  | first :: lines when String.equal first header ->
      let fields =
        List.fold_left
          (fun acc l ->
            let k, v =
              match String.index_opt l ' ' with
              | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
              | None -> (l, "")
            in
            if List.mem_assoc k acc then fail "%s: duplicate field %S" name k;
            (k, v) :: acc)
          [] lines
      in
      { name; fields }
  | first :: _ -> fail "%s: not a %s file (header %S)" name header first
  | [] -> fail "%s: empty file" name

let field_opt r k = List.assoc_opt k r.fields

let field r k =
  match field_opt r k with Some v -> v | None -> fail "%s: missing field %S" r.name k

let int_field ?(max = max_int) r k =
  match int_of_string_opt (field r k) with
  | Some n when n >= 0 && n <= max -> n
  | Some n -> fail "%s: field %S is %d, outside 0..%d" r.name k n max
  | None -> fail "%s: field %S is not an integer (%S)" r.name k (field r k)

let first_field r ~n ~before =
  let words =
    String.split_on_char ' ' (field r "first") |> List.filter (fun w -> w <> "") |> Array.of_list
  in
  if Array.length words <> n then
    fail "%s: %d detection entries for %d sites" r.name (Array.length words) n;
  Array.map
    (fun w ->
      if w = "-" then None
      else
        match int_of_string_opt w with
        | Some p when p >= 0 && p < before -> Some p
        | _ -> fail "%s: detection entry %S is not a pattern before %d" r.name w before)
    words

(* --- Files ----------------------------------------------------------------------- *)

let write_half path bytes =
  try
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path in
    output_string oc (String.sub bytes 0 (String.length bytes / 2));
    close_out_noerr oc
  with Sys_error _ -> ()

let publish ?(chaos = Chaos.disabled) ?write ?fsync ?rename ?(backup = false) ~what path bytes =
  let name = what ^ " " ^ path in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let drop_tmp () = try Sys.remove tmp with Sys_error _ -> () in
  let decide = function None -> Chaos.Pass | Some p -> Chaos.decide chaos p in
  (match decide write with
  | Chaos.Pass -> ()
  | Chaos.Fail -> fail "%s: injected write failure" name
  | Chaos.Torn ->
      (* Simulate a crash mid-write: a truncated tmp file stays behind
         (its checksum can never validate), exactly what [sweep_stale]
         and the [.bak] fallback exist to absorb. *)
      write_half tmp bytes;
      fail "%s: injected torn write to %s" name tmp);
  let oc =
    try open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
    with Sys_error msg -> fail "%s: cannot write %s: %s" name tmp msg
  in
  (try
     output_string oc bytes;
     flush oc;
     (* fsync before rename: without it a power loss can publish a name
        pointing at data the disk never received — the classic torn-rename
        window.  An injected fsync fault silently skips the sync (the
        write still "works"), modeling exactly that window. *)
     if decide fsync = Chaos.Pass then (
       try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
     close_out oc
   with Sys_error msg ->
     close_out_noerr oc;
     drop_tmp ();
     fail "%s: short write to %s: %s" name tmp msg);
  (* Rotate the last good file to [.bak] before publishing, so a later
     corruption of the primary still leaves a readable state. *)
  (if backup && Sys.file_exists path then
     try Sys.rename path (path ^ ".bak") with Sys_error _ -> ());
  if decide rename <> Chaos.Pass then (
    drop_tmp ();
    fail "%s: injected rename failure" name);
  try Sys.rename tmp path
  with Sys_error msg ->
    drop_tmp ();
    fail "%s: cannot publish: %s" name msg

(* [Some stem] when [entry] is a writer's tmp, [stem ^ ".tmp." ^ pid]. *)
let tmp_stem entry =
  match String.rindex_opt entry '.' with
  | Some i when i >= 4 && i < String.length entry - 1 && String.sub entry (i - 4) 5 = ".tmp." ->
      Some (String.sub entry 0 (i - 4))
  | _ -> None

let sweep_stale ?(all = false) path =
  let dir, owned =
    if all then (path, fun _ -> true)
    else (Filename.dirname path, String.equal (Filename.basename path))
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | entries ->
      Array.fold_left
        (fun n entry ->
          match tmp_stem entry with
          | Some stem when owned stem -> (
              match Sys.remove (Filename.concat dir entry) with
              | () -> n + 1
              | exception Sys_error _ -> n)
          | _ -> n)
        0 entries

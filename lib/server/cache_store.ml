(* On-disk backing for the content-addressed result cache.  See
   cache_store.mli.

   One file per entry under the data dir's cache/ subdirectory, named by
   the MD5 of the cache key (the key itself contains '|' separators and
   digests, so it is stored inside the file and verified on load).  An
   entry is a [Durable] record published by tmp + fsync + rename, so a
   crash mid-persist never publishes a torn entry; what CAN appear on
   disk is bit-rot or a torn write injected by the [cache.persist] chaos
   point, and the loader's answer to both is quarantine: the file is
   renamed to [*.corrupt] (kept for inspection, never rescanned) and
   counted, and the boot continues with every healthy entry. *)

open Dynmos_faultsim
module Chaos = Dynmos_chaos.Chaos
module Durable = Dynmos_durable.Durable

exception Error = Durable.Error

let header = "dynmos-cache v1"

type entry = {
  key : string;
  summary : Faultsim.summary;
  dt_s : float;
  evals : int;
  n_sites : int;
}

let file_of dir key = Filename.concat dir (Digest.to_hex (Digest.string key) ^ ".entry")

(* --- Serialization ------------------------------------------------------------ *)

let encode e =
  let s = e.summary in
  if s.Faultsim.outcome <> Outcome.Complete then
    invalid_arg "Cache_store: only Complete results are persisted";
  Durable.encode ~header
    [
      ("key", e.key);
      ("n_sites", string_of_int s.Faultsim.n_sites);
      ("n_patterns", string_of_int s.Faultsim.n_patterns);
      ("patterns_done", string_of_int s.Faultsim.patterns_done);
      ("sites_done", string_of_int s.Faultsim.sites_done);
      (* %h: exact hex float round-trip — a warm restart must serve the
         very bytes a cold run reported. *)
      ("dt_s", Printf.sprintf "%h" e.dt_s);
      ("evals", string_of_int e.evals);
      ("universe_sites", string_of_int e.n_sites);
      ("first", Durable.first_to_string s.Faultsim.first_detection);
    ]

let save ?(chaos = Chaos.disabled) dir e =
  let path = file_of dir e.key in
  let bytes = encode e in
  match Chaos.decide chaos Chaos.Cache_persist with
  | Chaos.Pass -> Durable.publish ~what:"cache entry" path bytes
  | Chaos.Fail -> Durable.fail "cache entry %s: injected persist failure" path
  | Chaos.Torn ->
      (* Model corruption the atomic rename cannot prevent: a truncated
         entry at the FINAL name, which the next boot must quarantine. *)
      Durable.write_half path bytes;
      Durable.fail "cache entry %s: injected torn persist" path

let load path =
  let r = Durable.load ~what:"cache entry" ~header path in
  let n_sites = Durable.int_field r "n_sites" in
  let n_patterns = Durable.int_field r "n_patterns" in
  (* Every writer keeps detections < patterns_done <= n_patterns and
     sites_done <= n_sites. *)
  let patterns_done = Durable.int_field ~max:n_patterns r "patterns_done" in
  let dt_s =
    match float_of_string_opt (Durable.field r "dt_s") with
    | Some f when Float.is_finite f && f >= 0.0 -> f
    | _ -> Durable.fail "cache entry %s: bad dt_s %S" path (Durable.field r "dt_s")
  in
  {
    key = Durable.field r "key";
    summary =
      {
        Faultsim.n_sites;
        n_patterns;
        first_detection = Durable.first_field r ~n:n_sites ~before:patterns_done;
        outcome = Outcome.Complete;
        patterns_done;
        sites_done = Durable.int_field ~max:n_sites r "sites_done";
      };
    dt_s;
    evals = Durable.int_field r "evals";
    n_sites = Durable.int_field r "universe_sites";
  }

let quarantine path =
  try
    Sys.rename path (path ^ ".corrupt");
    true
  with Sys_error _ -> ( try Sys.remove path; true with Sys_error _ -> false)

let load_all dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ([], 0)
  | files ->
      Array.sort compare files;
      Array.fold_left
        (fun (entries, corrupt) name ->
          if Filename.check_suffix name ".entry" then
            let path = Filename.concat dir name in
            match load path with
            | e ->
                (* The file name must be the key's digest — an entry
                   copied under the wrong name would serve the wrong
                   campaign's results. *)
                if Filename.concat dir (Filename.basename (file_of dir e.key)) = path then
                  (e :: entries, corrupt)
                else (
                  ignore (quarantine path);
                  (entries, corrupt + 1))
            | exception Error _ ->
                ignore (quarantine path);
                (entries, corrupt + 1)
          else (entries, corrupt))
        ([], 0) files
      |> fun (entries, corrupt) -> (List.rev entries, corrupt)

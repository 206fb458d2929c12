(* Frozen coverage fixtures: both engines (ppsfp on one domain and on
   two), plus the deductive test oracle, under both drop settings on the rand20, rand60 and rand1k
   catalog circuits must keep producing bit-identical detection results.
   rand1k is the deep, layered one (ten levels of a hundred gates), so a
   fault's events spread over many gates per level.  [--gen] prints the
   current lines (used once to freeze a baseline into fixtures.expected);
   the default mode, run under [dune runtest] and as a dedicated CI job,
   recomputes them and
   fails on the first divergence.  Only detection results are frozen —
   coverage, detection counts and a digest of the full first_detection
   array — never cost counters, which are allowed to improve. *)

open Dynmos_circuits
open Dynmos_sim
open Dynmos_faultsim
module Prng = Dynmos_util.Prng

let fixture_count = 256

let circuits = [ ("rand20", 101); ("rand60", 202); ("rand1k", 303) ]

let fd_digest (first : int option array) =
  let b = Buffer.create 256 in
  Array.iter
    (function
      | Some p ->
          Buffer.add_string b (string_of_int p);
          Buffer.add_char b ';'
      | None -> Buffer.add_string b "-;")
    first;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Every public engine surface, plus the test-side deductive oracle.
   The "algo" column keeps the baseline lines byte-identical: the
   engines propagate each fault within its fanout cone ("cone"); the
   oracle propagates fault lists through every gate ("full").  The
   "domains-bitpar" lines keep the label of the engine that produced
   them when they were frozen; ppsfp on two domains produces them now. *)
let engines :
    (string * string * (drop:bool -> Faultsim.universe -> bool array array -> Faultsim.summary))
    list =
  [
    ("serial", "cone", fun ~drop u p -> Faultsim.run_serial ~drop u p);
    ("deductive", "full", fun ~drop u p -> Deductive_oracle.run ~drop u p);
    ("ppsfp", "cone", fun ~drop u p -> Faultsim.run_ppsfp ~drop u p);
    ( "domains-bitpar",
      "cone",
      fun ~drop u p -> Faultsim.run_ppsfp ~drop ~num_domains:2 u p );
  ]

let lines () =
  List.concat_map
    (fun (cname, seed) ->
      let netlist =
        match Catalog.find cname with Ok n -> n | Error m -> failwith m
      in
      let u = Faultsim.universe netlist in
      let prng = Prng.create seed in
      let patterns =
        Faultsim.random_patterns prng
          ~n_inputs:(Compiled.n_inputs u.Faultsim.compiled)
          ~count:fixture_count
      in
      List.concat_map
        (fun (ename, algo, run) ->
          List.map
            (fun drop ->
              let s = run ~drop u patterns in
              Printf.sprintf
                "circuit=%s engine=%s algo=%s drop=%b sites=%d detected=%d \
                 patterns_done=%d sites_done=%d cov=%.6f fd=%s"
                cname ename algo drop s.Faultsim.n_sites (Faultsim.n_detected s)
                s.Faultsim.patterns_done s.Faultsim.sites_done (Faultsim.coverage s)
                (fd_digest s.Faultsim.first_detection))
            [ true; false ])
        engines)
    circuits

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (if line = "" then acc else line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--gen" then
    List.iter print_endline (lines ())
  else begin
    (* The frozen file is a dune dep copied next to the executable, so
       resolve it there — cwd differs between runtest and dune exec. *)
    let path =
      let beside = Filename.concat (Filename.dirname Sys.executable_name) "fixtures.expected" in
      if Sys.file_exists beside then beside else "fixtures.expected"
    in
    let expected = read_lines path in
    let actual = lines () in
    let ne = List.length expected and na = List.length actual in
    let failures = ref 0 in
    if ne <> na then begin
      incr failures;
      Printf.eprintf "fixture count mismatch: expected %d lines, got %d\n" ne na
    end;
    List.iteri
      (fun i e ->
        match List.nth_opt actual i with
        | Some a when a = e -> ()
        | Some a ->
            incr failures;
            Printf.eprintf "fixture drift at line %d:\n  expected: %s\n  actual:   %s\n"
              (i + 1) e a
        | None -> ())
      expected;
    if !failures > 0 then begin
      Printf.eprintf "%d fixture mismatch(es) — engine results changed\n" !failures;
      exit 1
    end;
    Printf.printf "fixtures: %d lines bit-identical\n" na
  end

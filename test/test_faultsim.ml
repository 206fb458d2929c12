open Dynmos_util
open Dynmos_cell
open Dynmos_core
open Dynmos_netlist
open Dynmos_faultsim
open Dynmos_circuits

(* Tests for fault simulation: universe construction and the agreement of
   the two engines with the deductive oracle — which is itself a
   reproduction artefact: the paper's point is that dynamic-MOS faults stay
   combinational so classical fault-simulation machinery applies. *)

let check = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let fig9_u () = Faultsim.universe (Generators.fig9_network ())

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_universe_fig9 () =
  let u = fig9_u () in
  (* one gate, ten detectable function classes *)
  check_i "ten sites" 10 (Faultsim.n_sites u);
  check_i "one library" 1 (List.length u.Faultsim.libraries);
  let labels = Array.to_list (Array.map (Faultsim.site_label u) u.Faultsim.sites) in
  check "labels carry members" true (List.exists (fun l -> contains l "CMOS-2") labels)

let test_universe_shares_libraries () =
  let nl = Generators.and_tree ~technology:Technology.Domino_cmos 8 in
  let u = Faultsim.universe nl in
  (* many gates, few distinct cells *)
  check "fewer libraries than gates" true
    (List.length u.Faultsim.libraries < Netlist.n_gates nl);
  check "sites = gates x classes" true (Faultsim.n_sites u > Netlist.n_gates nl)

let test_detects () =
  let u = fig9_u () in
  (* site for class 2 ("a open": u = d*e): detected by any vector where
     a*(b+c) = 1 and d*e = 0. *)
  let site =
    Array.to_list u.Faultsim.sites
    |> List.find (fun s -> s.Faultsim.entry.Faultlib.class_id = 2)
  in
  check "11000 detects a-open" true (Faultsim.detects u site [| true; true; false; false; false |]);
  check "00011 does not" false (Faultsim.detects u site [| false; false; false; true; true |])

(* Both engines — serial, and PPSFP asked for one domain and for two —
   must produce the first_detection of the deductive oracle, which
   propagates fault lists through every gate and shares no evaluation
   code with the engines' cone injection. *)
let engines_agree u patterns =
  let reference = Deductive_oracle.run ~drop:false u patterns in
  let agree s = s.Faultsim.first_detection = reference.Faultsim.first_detection in
  agree (Faultsim.run_serial ~drop:false u patterns)
  && agree (Faultsim.run_ppsfp ~drop:false u patterns)
  && agree (Faultsim.run_ppsfp ~drop:false ~num_domains:2 u patterns)

let test_engines_agree_fig9 () =
  let u = fig9_u () in
  let patterns = Faultsim.exhaustive_patterns 5 in
  check "serial = ppsfp (1 and 2 domains) = oracle" true (engines_agree u patterns)

(* The oracle itself against brute force: a [Faultsim.detects] scan of
   every site over every pattern, first hit wins, under both drop
   settings. *)
let test_oracle_brute_force () =
  let brute u pats =
    Array.map
      (fun site ->
        let rec scan j =
          if j = Array.length pats then None
          else if Faultsim.detects u site pats.(j) then Some j
          else scan (j + 1)
        in
        scan 0)
      u.Faultsim.sites
  in
  let c17 = Generators.c17 ~style:`Domino () in
  List.iter
    (fun (name, u, pats) ->
      let expected = brute u pats in
      List.iter
        (fun drop ->
          check (Fmt.str "%s drop=%b" name drop) true
            ((Deductive_oracle.run ~drop u pats).Faultsim.first_detection = expected))
        [ false; true ])
    [
      ("fig9, all 32 patterns", fig9_u (), Faultsim.exhaustive_patterns 5);
      ( "c17-domino",
        Faultsim.universe c17,
        Faultsim.random_patterns (Prng.create 13)
          ~n_inputs:(List.length (Netlist.inputs c17))
          ~count:100 );
    ]

let test_engines_agree_benchmarks () =
  let prng = Prng.create 11 in
  List.iter
    (fun nl ->
      let u = Faultsim.universe nl in
      let patterns =
        Faultsim.random_patterns prng
          ~n_inputs:(List.length (Netlist.inputs nl))
          ~count:100
      in
      check (Netlist.name nl) true (engines_agree u patterns))
    [
      Generators.c17 ~style:`Static ();
      Generators.c17 ~style:`Domino ();
      Generators.carry_chain ~technology:Technology.Domino_cmos 6;
      Generators.parity ~style:`Domino 4;
      Generators.random_monotone ~seed:3 ~n_inputs:6 ~n_gates:12
        ~technology:Technology.Domino_cmos ();
    ]

(* Cross-engine differential suite: pattern-count edge cases around the
   62-bit word boundary, and multi-output circuits. *)
let test_engines_agree_edge_counts () =
  let u = Faultsim.universe (Generators.ripple_adder ~style:`Domino 2) in
  let n_in = List.length (Netlist.inputs (Generators.ripple_adder ~style:`Domino 2)) in
  let prng = Prng.create 7 in
  List.iter
    (fun count ->
      let pats = Faultsim.random_patterns prng ~n_inputs:n_in ~count in
      check (Fmt.str "%d patterns" count) true (engines_agree u pats))
    [ 0; 1; 61; 62; 63; 124; 125 ]

let test_engines_agree_multi_output () =
  let prng = Prng.create 29 in
  List.iter
    (fun nl ->
      let u = Faultsim.universe nl in
      check
        (Fmt.str "%s (%d outputs)" (Netlist.name nl) (List.length (Netlist.outputs nl)))
        true
        (List.length (Netlist.outputs nl) > 1
        && engines_agree u
             (Faultsim.random_patterns prng
                ~n_inputs:(List.length (Netlist.inputs nl))
                ~count:80))
    )
    [
      Generators.ripple_adder ~style:`Domino 3;
      Generators.decoder ~style:`Domino 3;
      Generators.random_monotone ~seed:13 ~n_inputs:7 ~n_gates:15
        ~technology:Technology.Domino_cmos ();
    ]

(* --- Fanout structure ------------------------------------------------------------ *)

module Compiled = Dynmos_sim.Compiled

(* An explicitly reconvergent circuit: g1 fans out along two paths (g2,
   g3) that reconverge at g4, and g2 is additionally tapped as a second
   primary output — the shape where naive difference propagation goes
   wrong and event-driven injection must still match whole-circuit
   injection. *)
let reconvergent_netlist () =
  let and2 = Stdcells.and_gate 2 Technology.Domino_cmos in
  let or2 = Stdcells.or_gate 2 Technology.Domino_cmos in
  let b = Netlist.Builder.create "reconv" in
  let a = Netlist.Builder.input b "a" in
  let c = Netlist.Builder.input b "c" in
  let g1 = Netlist.Builder.add b and2 ~inputs:[ a; c ] ~output:"g1" in
  let g2 = Netlist.Builder.add b or2 ~inputs:[ g1; a ] ~output:"g2" in
  let g3 = Netlist.Builder.add b and2 ~inputs:[ g1; c ] ~output:"g3" in
  let g4 = Netlist.Builder.add b or2 ~inputs:[ g2; g3 ] ~output:"g4" in
  Netlist.Builder.output b g2;
  Netlist.Builder.output b g4;
  Netlist.Builder.finish b

let test_cone_reconvergent () =
  let nl = reconvergent_netlist () in
  let c = Compiled.compile nl in
  (* g1 (gate id 0) fans out along two paths that reconverge at g4. *)
  check "g1 feeds g2 and g3" true (Compiled.consumers c 0 = [| 1; 2 |]);
  check "g2 feeds g4" true (Compiled.consumers c 1 = [| 3 |]);
  check "g3 feeds g4" true (Compiled.consumers c 2 = [| 3 |]);
  check "g4 feeds nothing" true (Compiled.consumers c 3 = [||]);
  (* and the engines agree on it, exhaustively *)
  let u = Faultsim.universe nl in
  check "engines agree on reconvergent circuit" true
    (engines_agree u (Faultsim.exhaustive_patterns 2))

(* Reconvergence at scale: every differential engine pair on random
   monotone circuits (they contain shared fanout by construction). *)
let test_cone_reconvergent_random () =
  let prng = Prng.create 59 in
  List.iter
    (fun seed ->
      let nl =
        Generators.random_monotone ~seed ~n_inputs:8 ~n_gates:30
          ~technology:Technology.Domino_cmos ()
      in
      let u = Faultsim.universe nl in
      let pats = Faultsim.random_patterns prng ~n_inputs:8 ~count:100 in
      check (Fmt.str "seed %d" seed) true (engines_agree u pats))
    [ 2; 21; 77 ]

(* --- Domain-parallel layer -------------------------------------------------- *)

(* Same results for every domain count.  Circuits this small stay below
   the engine's work threshold and run on one domain whatever is
   requested; the rand1k differential below pins the helper path. *)
let test_domain_counts_equal () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 6 in
  let u = Faultsim.universe nl in
  let prng = Prng.create 41 in
  let pats =
    Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count:90
  in
  let reference = Faultsim.run_serial ~drop:false u pats in
  List.iter
    (fun n ->
      let s =
        Faultsim.run_ppsfp ~drop:false ~num_domains:n u pats
      in
      check (Fmt.str "num_domains=%d" n) true
        (s.Faultsim.first_detection = reference.Faultsim.first_detection))
    [ 1; 2; 4 ]

(* Dropping only skips work after a site's first detection: summaries with
   and without dropping are identical, for any domain count. *)
let test_domain_drop_semantics () =
  let nl = Generators.c17 ~style:`Domino () in
  let u = Faultsim.universe nl in
  let prng = Prng.create 43 in
  let pats =
    Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count:100
  in
  List.iter
    (fun n ->
      let with_drop =
        Faultsim.run_ppsfp ~drop:true ~num_domains:n u pats
      in
      let without =
        Faultsim.run_ppsfp ~drop:false ~num_domains:n u pats
      in
      check (Fmt.str "drop invariant, num_domains=%d" n) true
        (with_drop.Faultsim.first_detection = without.Faultsim.first_detection);
      check (Fmt.str "matches serial, num_domains=%d" n) true
        (with_drop.Faultsim.first_detection
        = (Faultsim.run_serial ~drop:true u pats).Faultsim.first_detection))
    [ 1; 3 ]

let test_domain_empty_universe () =
  (* More domains than sites, and zero patterns, must both be safe. *)
  let u = fig9_u () in
  let s = Faultsim.run_ppsfp ~num_domains:8 u [||] in
  check_i "no patterns" 0 s.Faultsim.n_patterns;
  check "nothing detected" true (Array.for_all (( = ) None) s.Faultsim.first_detection);
  let pats = Faultsim.exhaustive_patterns 5 in
  let s = Faultsim.run_ppsfp ~num_domains:32 u pats in
  check "32 domains, 10 sites" true
    (s.Faultsim.first_detection = (Faultsim.run_serial u pats).Faultsim.first_detection)

let test_exhaustive_full_coverage () =
  (* Every site of the fig9 universe is detectable (library excluded the
     redundant ones), so exhaustive patterns reach 100%. *)
  let u = fig9_u () in
  let s = Faultsim.run_ppsfp u (Faultsim.exhaustive_patterns 5) in
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 (Faultsim.coverage s);
  check_i "all detected" (Faultsim.n_sites u) (Faultsim.n_detected s);
  check "no undetected" true (Faultsim.undetected u s = [])

let test_more_patterns_dont_hurt () =
  let u = Faultsim.universe (Generators.c17 ~style:`Domino ()) in
  let prng = Prng.create 5 in
  let n_in = Dynmos_sim.Compiled.n_inputs u.Faultsim.compiled in
  let pats = Faultsim.random_patterns prng ~n_inputs:n_in ~count:64 in
  let half = Array.sub pats 0 32 in
  let c1 = Faultsim.coverage (Faultsim.run_ppsfp u half) in
  let c2 = Faultsim.coverage (Faultsim.run_ppsfp u pats) in
  check "monotone coverage" true (c2 >= c1)

let test_coverage_curve () =
  let u = fig9_u () in
  let pats = Faultsim.exhaustive_patterns 5 in
  let s = Faultsim.run_ppsfp u pats in
  let curve = Faultsim.coverage_curve s in
  check_i "curve length" (Array.length pats + 1) (Array.length curve);
  Alcotest.(check (float 1e-9)) "starts at 0" 0.0 curve.(0);
  Alcotest.(check (float 1e-9)) "ends at coverage" (Faultsim.coverage s)
    curve.(Array.length curve - 1);
  let monotone = ref true in
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then monotone := false
  done;
  check "monotone" true !monotone

let test_drop_consistency () =
  (* With fault dropping the achieved *set* of detected faults is the
     same; first_detection may only be earlier or equal. *)
  let u = Faultsim.universe (Generators.carry_chain ~technology:Technology.Domino_cmos 5) in
  let prng = Prng.create 19 in
  let pats = Faultsim.random_patterns prng ~n_inputs:11 ~count:80 in
  let with_drop = Faultsim.run_ppsfp ~drop:true u pats in
  let without = Faultsim.run_ppsfp ~drop:false u pats in
  check "same detection set" true
    (Array.for_all2
       (fun a b -> (a = None) = (b = None))
       with_drop.Faultsim.first_detection without.Faultsim.first_detection);
  check "same first pattern" true
    (with_drop.Faultsim.first_detection = without.Faultsim.first_detection);
  (* A dropped site is never evaluated again: the crash hook fires once
     per site evaluation, so a detected site is evaluated in exactly the
     62-pattern units up to the one holding its first detection, and an
     undetected one in every unit. *)
  let pats = Faultsim.random_patterns prng ~n_inputs:11 ~count:200 in
  let evaluated = Array.make (Faultsim.n_sites u) 0 in
  let s =
    Faultsim.run_ppsfp ~drop:true
      ~crash_hook:(fun sid -> evaluated.(sid) <- evaluated.(sid) + 1)
      u pats
  in
  let n_units = (Array.length pats + 61) / 62 in
  check "dropped sites never re-evaluated" true
    (Array.for_all2
       (fun n first -> n = match first with Some p -> (p / 62) + 1 | None -> n_units)
       evaluated s.Faultsim.first_detection)

let test_weighted_patterns () =
  let prng = Prng.create 23 in
  let w = [| 0.9; 0.1 |] in
  let pats = Faultsim.random_patterns ~weights:w prng ~n_inputs:2 ~count:2000 in
  let count i = Array.fold_left (fun acc p -> if p.(i) then acc + 1 else acc) 0 pats in
  let f0 = float_of_int (count 0) /. 2000.0 in
  let f1 = float_of_int (count 1) /. 2000.0 in
  check "input 0 mostly 1" true (f0 > 0.85 && f0 < 0.95);
  check "input 1 mostly 0" true (f1 > 0.05 && f1 < 0.15)

let test_exhaustive_patterns () =
  let pats = Faultsim.exhaustive_patterns 3 in
  check_i "8 patterns" 8 (Array.length pats);
  check "row 5 = 101" true (pats.(5) = [| true; false; true |])

(* --- Pattern-generator validation ------------------------------------------- *)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_exhaustive_bounds () =
  check "negative raises" true (raises_invalid (fun () -> Faultsim.exhaustive_patterns (-1)));
  check "beyond the bound raises" true
    (raises_invalid (fun () ->
         Faultsim.exhaustive_patterns (Faultsim.max_exhaustive_inputs + 1)));
  check "62 would overflow, raises (not shifts)" true
    (raises_invalid (fun () -> Faultsim.exhaustive_patterns 62));
  check_i "zero inputs = one empty pattern" 1 (Array.length (Faultsim.exhaustive_patterns 0))

let test_random_patterns_validation () =
  let prng = Prng.create 1 in
  check "negative n_inputs raises" true
    (raises_invalid (fun () -> Faultsim.random_patterns prng ~n_inputs:(-1) ~count:4));
  check "negative count raises" true
    (raises_invalid (fun () -> Faultsim.random_patterns prng ~n_inputs:2 ~count:(-1)));
  check "short weights raises" true
    (raises_invalid (fun () ->
         Faultsim.random_patterns ~weights:[| 0.5 |] prng ~n_inputs:3 ~count:4));
  check "weight > 1 raises" true
    (raises_invalid (fun () ->
         Faultsim.random_patterns ~weights:[| 0.5; 1.5 |] prng ~n_inputs:2 ~count:4));
  check "nan weight raises" true
    (raises_invalid (fun () ->
         Faultsim.random_patterns ~weights:[| Float.nan; 0.5 |] prng ~n_inputs:2 ~count:4));
  (* the error message must name the problem, not just "index out of bounds" *)
  (match Faultsim.random_patterns ~weights:[| 0.5 |] prng ~n_inputs:3 ~count:4 with
  | exception Invalid_argument msg ->
      check "message names weights" true (contains msg "weights")
  | _ -> Alcotest.fail "expected Invalid_argument");
  (* boundary probabilities 0 and 1 are legal and deterministic *)
  let pats = Faultsim.random_patterns ~weights:[| 0.0; 1.0 |] prng ~n_inputs:2 ~count:8 in
  check "p=0 always false / p=1 always true" true
    (Array.for_all (fun p -> (not p.(0)) && p.(1)) pats)

(* --- Universe validation and restriction ------------------------------------ *)

let invalid_msg f =
  match f () with
  | exception Invalid_argument msg -> msg
  | _ -> Alcotest.fail "expected Invalid_argument"

(* [validate_universe] catches hand-assembled universes that would make
   the engines index out of bounds or double-count detections. *)
let test_validate_universe () =
  let u = Faultsim.universe (Generators.c17 ~style:`Domino ()) in
  Faultsim.validate_universe u;  (* the constructor's output is valid *)
  let copy () = { u with Faultsim.sites = Array.map Fun.id u.Faultsim.sites } in
  (* non-dense sid *)
  let broken = copy () in
  broken.Faultsim.sites.(0) <- { broken.Faultsim.sites.(0) with Faultsim.sid = 5 };
  let msg = invalid_msg (fun () -> Faultsim.validate_universe broken) in
  check "names the sid" true (contains msg "sid");
  (* duplicate (gate, class) pair — sids stay dense *)
  let broken = copy () in
  broken.Faultsim.sites.(1) <- { broken.Faultsim.sites.(0) with Faultsim.sid = 1 };
  let msg = invalid_msg (fun () -> Faultsim.validate_universe broken) in
  check "names the duplicate site" true (contains msg "duplicate");
  (* gate id outside the compiled circuit *)
  let broken = copy () in
  let s0 = broken.Faultsim.sites.(0) in
  broken.Faultsim.sites.(0) <-
    { s0 with Faultsim.gate = { s0.Faultsim.gate with Netlist.id = 99 } };
  let msg = invalid_msg (fun () -> Faultsim.validate_universe broken) in
  check "names the gate id" true (contains msg "gate")

let test_restrict_universe () =
  let nl = Generators.c17 ~style:`Domino () in
  let u = Faultsim.universe nl in
  let gates = [ 0; 2 ] in
  let ru = Faultsim.restrict_universe u ~gates in
  check "fewer sites" true (Faultsim.n_sites ru < Faultsim.n_sites u);
  check "only the listed gates" true
    (Array.for_all (fun s -> List.mem s.Faultsim.gate.Netlist.id gates) ru.Faultsim.sites);
  (* result is valid by construction: dense sids, in-range gates *)
  Faultsim.validate_universe ru;
  (* detections on the sub-universe match the corresponding sites of a
     full-universe run, pattern for pattern *)
  let prng = Prng.create 7 in
  let pats =
    Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count:32
  in
  let full = Faultsim.run_serial ~drop:false u pats in
  let sub = Faultsim.run_serial ~drop:false ru pats in
  Array.iter
    (fun s ->
      let key s = (s.Faultsim.gate.Netlist.id, s.Faultsim.entry.Faultlib.class_id) in
      let orig =
        Array.to_list u.Faultsim.sites |> List.find (fun o -> key o = key s)
      in
      check "restricted detection matches full run" true
        (sub.Faultsim.first_detection.(s.Faultsim.sid)
        = full.Faultsim.first_detection.(orig.Faultsim.sid)))
    ru.Faultsim.sites;
  (* bad gate lists are named errors *)
  check "out-of-range gate raises" true
    (raises_invalid (fun () -> Faultsim.restrict_universe u ~gates:[ 0; 99 ]));
  check "negative gate raises" true
    (raises_invalid (fun () -> Faultsim.restrict_universe u ~gates:[ -1 ]));
  check "duplicate gate raises" true
    (raises_invalid (fun () -> Faultsim.restrict_universe u ~gates:[ 1; 1 ]));
  check "empty restriction is legal" true
    (Faultsim.n_sites (Faultsim.restrict_universe u ~gates:[]) = 0)

(* --- PPSFP ------------------------------------------------------------------- *)

(* Restricted universes (arbitrary site subsets) go through the same
   kernel: 62-pattern words give the one-pattern reference's first
   detections. *)
let test_ppsfp_restricted_universe () =
  let nl =
    Generators.random_monotone ~seed:21 ~n_inputs:8 ~n_gates:30
      ~technology:Technology.Domino_cmos ()
  in
  let u = Faultsim.universe nl in
  let ru = Faultsim.restrict_universe u ~gates:[ 0; 5; 7; 13; 22 ] in
  let prng = Prng.create 91 in
  let pats = Faultsim.random_patterns prng ~n_inputs:8 ~count:90 in
  let reference = Faultsim.run_serial ~drop:false ru pats in
  check "restricted universe" true
    ((Faultsim.run_ppsfp ~drop:false ru pats).Faultsim.first_detection
    = reference.Faultsim.first_detection)

(* --- Observability ---------------------------------------------------------- *)

module Obs = Dynmos_obs.Obs

(* With and without a recorder, every engine produces bit-identical
   summaries and the same counts record: observation must never change
   results, and the counters have one source.  The faultsim.run event
   lists exactly that record's fields after dt_s. *)
let test_obs_parity () =
  let u = Faultsim.universe (Generators.c17 ~style:`Domino ()) in
  let prng = Prng.create 47 in
  let pats =
    Faultsim.random_patterns prng
      ~n_inputs:(Dynmos_sim.Compiled.n_inputs u.Faultsim.compiled)
      ~count:90
  in
  let engines drop =
    [
      ("serial", fun obs on_counts -> Faultsim.run_serial ~drop ~obs ~on_counts u pats);
      ("ppsfp", fun obs on_counts -> Faultsim.run_ppsfp ~drop ~obs ~on_counts u pats);
      ( "ppsfp x2",
        fun obs on_counts -> Faultsim.run_ppsfp ~drop ~num_domains:2 ~obs ~on_counts u pats );
      ("deductive", fun obs on_counts -> Deductive_oracle.run ~drop ~obs ~on_counts u pats);
    ]
  in
  let rec after_dt_s = function
    | [] -> []
    | ("dt_s", _) :: rest -> rest
    | _ :: rest -> after_dt_s rest
  in
  List.iter
    (fun drop ->
      List.iter
        (fun (name, run) ->
          let name = Fmt.str "%s drop=%b" name drop in
          let run obs =
            let counts = ref [] in
            let s = run obs (fun c -> counts := c :: !counts) in
            match !counts with
            | [ c ] -> (s, c)
            | l -> Alcotest.failf "%s: %d counts deliveries, expected 1" name (List.length l)
          in
          let sink, fetch = Obs.memory_sink () in
          let observed, c_observed = run (Obs.make sink) in
          let plain, c_plain = run Obs.disabled in
          check (name ^ ": identical summaries") true
            (observed.Faultsim.first_detection = plain.Faultsim.first_detection);
          check (name ^ ": identical counts") true (c_observed = c_plain);
          match List.filter (fun e -> e.Obs.ev = "faultsim.run") (fetch ()) with
          | [ e ] ->
              check (name ^ ": event fields after dt_s = the counts") true
                (after_dt_s e.Obs.fields = Campaign.count_fields c_plain)
          | l -> Alcotest.failf "%s: %d faultsim.run events, expected 1" name (List.length l))
        (engines drop))
    [ true; false ]

let field_int e name =
  match List.assoc_opt name e.Obs.fields with Some (Obs.Int n) -> Some n | _ -> None

let run_event fetch =
  match List.filter (fun e -> e.Obs.ev = "faultsim.run") (fetch ()) with
  | [ e ] -> e
  | l -> Alcotest.fail (Fmt.str "expected exactly one faultsim.run event, got %d" (List.length l))

(* The eval counters must reconcile across engines: the serial engine
   evaluates sites x patterns without dropping, and PPSFP with each unit
   split over domains performs exactly the one-domain run's
   faulty-machine evaluations under the same drop setting, whatever
   domain count was asked for. *)
let test_obs_eval_reconciliation () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 6 in
  let u = Faultsim.universe nl in
  let prng = Prng.create 53 in
  let pats =
    Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count:70
  in
  let evals run =
    let sink, fetch = Obs.memory_sink () in
    ignore (run (Obs.make sink));
    Option.get (field_int (run_event fetch) "evals")
  in
  List.iter
    (fun drop ->
      let serial_evals = evals (fun obs -> Faultsim.run_serial ~drop ~obs u pats) in
      if not drop then
        check_i "no-drop serial evals = sites x patterns"
          (Faultsim.n_sites u * Array.length pats)
          serial_evals;
      let one_domain_evals = evals (fun obs -> Faultsim.run_ppsfp ~drop ~obs u pats) in
      List.iter
        (fun n ->
          check_i
            (Fmt.str "ppsfp(%d domains) drop=%b evals = one-domain evals" n drop)
            one_domain_evals
            (evals (fun obs -> Faultsim.run_ppsfp ~drop ~num_domains:n ~obs u pats)))
        [ 2; 3 ])
    [ false; true ]

(* The unified driver owns one accounting definition — one kernel
   evaluation per live site per pattern unit — so every kernel sweeping
   one pattern per unit (the serial engine, the deductive oracle) must
   report the SAME evals/evals_saved totals for the same campaign: the
   numbers are a property of the campaign, not of the kernel.
   PPSFP units are 62-pattern words, so its totals scale by the chunk
   count instead. *)
let test_unified_accounting_totals () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 6 in
  let u = Faultsim.universe nl in
  let prng = Prng.create 67 in
  let n_in = List.length (Netlist.inputs nl) in
  let pats = Faultsim.random_patterns prng ~n_inputs:n_in ~count:100 in
  let totals run =
    let sink, fetch = Obs.memory_sink () in
    ignore (run (Obs.make sink));
    let e = run_event fetch in
    (Option.get (field_int e "evals"), Option.get (field_int e "evals_saved"))
  in
  List.iter
    (fun drop ->
      let se, ss = totals (fun obs -> Faultsim.run_serial ~drop ~obs u pats) in
      check_i
        (Fmt.str "drop=%b: serial accounts the full workload" drop)
        (Faultsim.n_sites u * Array.length pats)
        (se + ss);
      let oe, os = totals (fun obs -> Deductive_oracle.run ~drop ~obs u pats) in
      check_i (Fmt.str "drop=%b: oracle evals = serial evals" drop) se oe;
      check_i (Fmt.str "drop=%b: oracle evals_saved = serial evals_saved" drop) ss os;
      let chunks = (Array.length pats + 61) / 62 in
      let pe, ps = totals (fun obs -> Faultsim.run_ppsfp ~drop ~obs u pats) in
      check_i
        (Fmt.str "drop=%b: ppsfp accounts sites x chunks" drop)
        (Faultsim.n_sites u * chunks)
        (pe + ps);
      if not drop then
        check_i "no-drop ppsfp evals = sites x chunks" (Faultsim.n_sites u * chunks) pe)
    [ false; true ]

(* Cone bookkeeping: on a circuit with meaningful structure the cone
   kernel performs strictly fewer gate evaluations than its kernel
   invocations would cost as whole-circuit sweeps (evals x gates), and
   "gate_evals_saved" accounts for exactly the difference. *)
let test_cone_gate_evals () =
  let nl =
    Generators.random_monotone ~seed:3 ~n_inputs:8 ~n_gates:30
      ~technology:Technology.Domino_cmos ()
  in
  let u = Faultsim.universe nl in
  let prng = Prng.create 61 in
  let pats = Faultsim.random_patterns prng ~n_inputs:8 ~count:100 in
  List.iter
    (fun (name, run) ->
      let sink, fetch = Obs.memory_sink () in
      ignore (run (Obs.make sink));
      let e = run_event fetch in
      let evals = Option.get (field_int e "evals") in
      let gate_evals = Option.get (field_int e "gate_evals") in
      let saved = Option.get (field_int e "gate_evals_saved") in
      let whole_circuit = evals * Netlist.n_gates nl in
      check (name ^ ": cone gate evals < evals x gates") true (gate_evals < whole_circuit);
      check_i (name ^ ": saved = evals x gates - gate evals") whole_circuit (gate_evals + saved))
    [
      ("serial", fun obs -> Faultsim.run_serial ~drop:false ~obs u pats);
      ("ppsfp", fun obs -> Faultsim.run_ppsfp ~drop:false ~obs u pats);
    ]

(* All-detected early exit: once every site is detected under drop, the
   remaining patterns are skipped, yet (a) results equal the no-drop run
   and (b) evals + evals_saved still accounts for the full
   sites x patterns (or sites x chunks) workload. *)
let test_early_exit_accounting () =
  let u = fig9_u () in
  (* exhaustive fig9 reaches full coverage within the first 32 vectors;
     doubling the set to 64 patterns (2 ppsfp chunks) guarantees
     there is a wholly-redundant tail for the early exit to skip *)
  let pats = Faultsim.exhaustive_patterns 5 in
  let pats = Array.append pats pats in
  let totals =
    [
      ("serial", (fun obs -> Faultsim.run_serial ~obs u pats), Faultsim.n_sites u * 64);
      ("ppsfp", (fun obs -> Faultsim.run_ppsfp ~obs u pats), Faultsim.n_sites u * 2);
    ]
  in
  List.iter
    (fun (name, run, expected_total) ->
      let sink, fetch = Obs.memory_sink () in
      let s = run (Obs.make sink) in
      let e = run_event fetch in
      let evals = Option.get (field_int e "evals") in
      let saved = Option.get (field_int e "evals_saved") in
      check_i (name ^ ": evals + saved = full workload") expected_total (evals + saved);
      check (name ^ ": exit actually saved work") true (saved > 0);
      check (name ^ ": detections match no-drop") true
        (s.Faultsim.first_detection
        = (Faultsim.run_serial ~drop:false u pats).Faultsim.first_detection))
    totals;
  (* the oracle's kernel goes through the same driver: it stops early
     and reports the saving too *)
  let sink, fetch = Obs.memory_sink () in
  let s = Deductive_oracle.run ~drop:true ~obs:(Obs.make sink) u pats in
  let saved = Option.get (field_int (run_event fetch) "evals_saved") in
  check "oracle: early exit saved work" true (saved > 0);
  check "oracle: detections match no-drop" true
    (s.Faultsim.first_detection = (Deductive_oracle.run ~drop:false u pats).Faultsim.first_detection)

(* rand1k at 256 patterns clears PPSFP's work threshold for two
   domains (rand20 and rand60 do not), so these tests exercise
   the helper path; one universe build serves them all. *)
let rand1k =
  lazy
    (let nl = match Catalog.find "rand1k" with Ok nl -> nl | Error m -> failwith m in
     let u = Faultsim.universe nl in
     let prng = Prng.create 1 in
     (u, Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count:256))

let domain_counts ?(num_domains = 2) u pats =
  let sink, fetch = Obs.memory_sink () in
  ignore (Faultsim.run_ppsfp ~num_domains ~obs:(Obs.make sink) u pats);
  let e = run_event fetch in
  (Option.get (field_int e "requested_domains"), Option.get (field_int e "effective_domains"))

let failed_sids s =
  match s.Faultsim.outcome with
  | Outcome.Partial p -> List.map fst p.Outcome.failed_sites
  | Outcome.Complete -> []

(* The domain clamp, read off the faultsim.run event: requested domains
   are a ceiling, cut down to the site count and to one domain per 50k
   gate evaluations of static work estimate (sites x words x gates). *)
let test_domain_clamp () =
  (* fig9 x 32 patterns is far below the work threshold: the engine must
     not start a single extra domain for it *)
  let u = fig9_u () in
  let pats = Faultsim.exhaustive_patterns 5 in
  check "work clamp: 8 requested, 1 effective" true (domain_counts ~num_domains:8 u pats = (8, 1));
  (* every rand1k site over 4096 patterns is worth a domain of its own,
     so on one gate's few sites the site count is the clamp *)
  let u, _ = Lazy.force rand1k in
  let u = Faultsim.restrict_universe u ~gates:[ 0 ] in
  let k = Faultsim.n_sites u in
  let prng = Prng.create 5 in
  let pats =
    Faultsim.random_patterns prng ~n_inputs:(Compiled.n_inputs u.Faultsim.compiled) ~count:4096
  in
  check "gate 0 has several sites" true (k >= 2);
  check "site clamp: k + 1 requested, k effective" true
    (domain_counts ~num_domains:(k + 1) u pats = (k + 1, k));
  (* its units are too small for the helpers after the first one, which
     splits unconditionally: both paths must agree with one domain *)
  check "split first unit, then one domain: = one domain" true
    ((Faultsim.run_ppsfp ~num_domains:(k + 1) u pats).Faultsim.first_detection
    = (Faultsim.run_ppsfp u pats).Faultsim.first_detection);
  let u, pats = Lazy.force rand1k in
  check "rand1k@256: 2 requested, 2 effective" true (domain_counts u pats = (2, 2))

(* PPSFP on two domains against one, on a workload that really starts a
   helper domain, with supervision under load: one site fails once,
   another always.  Detections, failures and the driver's counters must
   all be the one-domain run's. *)
let test_domains_differential () =
  let u, pats = Lazy.force rand1k in
  let transient = 7 and permanent = (Faultsim.n_sites u / 2) + 3 in
  let crash_hook () =
    let armed = Atomic.make true in
    fun sid ->
      if sid = permanent then failwith "injected permanent crash";
      if sid = transient && Atomic.exchange armed false then failwith "injected transient crash"
  in
  let observe run =
    let sink, fetch = Obs.memory_sink () in
    let s = run ~obs:(Obs.make sink) ~crash_hook:(crash_hook ()) in
    (s, run_event fetch)
  in
  List.iter
    (fun drop ->
      let name = Fmt.str "drop=%b" drop in
      let s, e =
        observe (fun ~obs ~crash_hook ->
            Faultsim.run_ppsfp ~drop ~num_domains:1 ~obs ~crash_hook u pats)
      in
      let s', e' =
        observe (fun ~obs ~crash_hook ->
            Faultsim.run_ppsfp ~drop ~num_domains:2 ~obs ~crash_hook u pats)
      in
      check (name ^ ": first detections") true
        (s'.Faultsim.first_detection = s.Faultsim.first_detection);
      check (name ^ ": the permanent crash is the one failed site") true
        (failed_sids s = [ permanent ]);
      check (name ^ ": failed sites") true (failed_sids s' = failed_sids s);
      List.iter
        (fun k -> check (Fmt.str "%s: %s" name k) true (field_int e' k = field_int e k))
        [ "evals"; "evals_saved"; "gate_evals"; "retries" ];
      check (name ^ ": three retries") true (field_int e' "retries" = Some 3);
      check (name ^ ": two effective domains") true (field_int e' "effective_domains" = Some 2))
    [ true; false ]

(* An armed chaos registry keeps PPSFP on the one sweeping domain, so an
   [exec.job] schedule replays whatever domain count is asked for: on a
   campaign where two domains start a helper without chaos, one spec
   gives the same detections, failed sites and injection count at one
   domain and at two.  Each run gets a fresh registry from the spec. *)
let test_chaos_keeps_one_domain () =
  let u, pats = Lazy.force rand1k in
  check "without chaos, two domains start a helper" true (domain_counts u pats = (2, 2));
  let run num_domains =
    let chaos =
      match Dynmos_chaos.Chaos.of_spec "exec.job=fail_prob:0.05,seed=7" with
      | Ok c -> c
      | Error e -> Alcotest.fail e
    in
    let sink, fetch = Obs.memory_sink () in
    let s =
      Faultsim.run_ppsfp ~num_domains ~chaos ~obs:(Obs.make sink) u pats
    in
    (s, run_event fetch)
  in
  let s1, e1 = run 1 in
  let s2, e2 = run 2 in
  check "armed chaos: one effective domain" true (field_int e2 "effective_domains" = Some 1);
  check "first detections" true (s2.Faultsim.first_detection = s1.Faultsim.first_detection);
  check "failed sites" true (failed_sids s2 = failed_sids s1);
  check "injections" true (field_int e2 "chaos_injected" = field_int e1 "chaos_injected");
  check "the schedule injected" true (Option.get (field_int e1 "chaos_injected") > 0)

(* --- Robustness: supervision, limits, checkpoint/resume ---------------------- *)

(* A crash hook that raises for one victim site the first [transients]
   times that site comes up for evaluation.  Keyed on the site id and
   counted atomically, so it serves both the serial engines (hook called
   per pattern) and the domain pool (hook called per job evaluation,
   possibly from several domains). *)
let crashing_hook ~victim ~transients =
  let hits = Atomic.make 0 in
  fun sid ->
    if sid = victim then
      if Atomic.fetch_and_add hits 1 < transients then failwith "injected crash"

let always_crashing ~victim =
  fun sid -> if sid = victim then failwith "injected permanent crash"

let robustness_fixture () =
  let nl =
    Generators.random_monotone ~seed:3 ~n_inputs:8 ~n_gates:30
      ~technology:Technology.Domino_cmos ()
  in
  let u = Faultsim.universe nl in
  let prng = Prng.create 71 in
  let pats = Faultsim.random_patterns prng ~n_inputs:8 ~count:100 in
  (u, pats)

let supervised_engines =
  [
    ("serial", fun ~crash_hook u pats -> Faultsim.run_serial ~drop:false ~crash_hook u pats);
    ("ppsfp", fun ~crash_hook u pats -> Faultsim.run_ppsfp ~drop:false ~crash_hook u pats);
    ( "ppsfp x2",
      fun ~crash_hook u pats -> Faultsim.run_ppsfp ~drop:false ~num_domains:2 ~crash_hook u pats );
  ]

(* A site that crashes transiently (fewer times than the attempt budget)
   is retried and the whole summary — including the victim — is
   bit-identical to a clean run, with a [Complete] outcome.  This also
   exercises the baseline-restore path: a corrupted good machine would
   change *other* sites' results. *)
let test_transient_crash_recovered () =
  let u, pats = robustness_fixture () in
  let clean = Faultsim.run_serial ~drop:false u pats in
  let victim = Faultsim.n_sites u / 2 in
  List.iter
    (fun (name, run) ->
      let s = run ~crash_hook:(crashing_hook ~victim ~transients:2) u pats in
      check (name ^ ": complete outcome") true (Outcome.is_complete s.Faultsim.outcome);
      check (name ^ ": bit-identical to clean run") true
        (s.Faultsim.first_detection = clean.Faultsim.first_detection))
    supervised_engines

(* A site that keeps crashing is excluded and reported; every other
   site's detections are identical to the clean run and never lost. *)
let test_permanent_crash_isolated () =
  let u, pats = robustness_fixture () in
  let clean = Faultsim.run_serial ~drop:false u pats in
  let victim = 3 in
  List.iter
    (fun (name, run) ->
      let s = run ~crash_hook:(always_crashing ~victim) u pats in
      (match s.Faultsim.outcome with
      | Outcome.Partial { Outcome.failed_sites = [ (sid, msg) ]; stopped = None } ->
          check_i (name ^ ": victim reported") victim sid;
          check (name ^ ": message survives") true (contains msg "injected permanent")
      | _ -> Alcotest.fail (name ^ ": expected exactly one failed site"));
      check (name ^ ": victim slot unset") true (s.Faultsim.first_detection.(victim) = None);
      check (name ^ ": other sites unharmed") true
        (Array.for_all
           (fun i -> i = victim || s.Faultsim.first_detection.(i) = clean.Faultsim.first_detection.(i))
           (Array.init (Faultsim.n_sites u) Fun.id));
      check_i (name ^ ": sites_done excludes victim") (Faultsim.n_sites u - 1)
        s.Faultsim.sites_done;
      check_i (name ^ ": exit code 2") 2 (Outcome.exit_code s.Faultsim.outcome))
    supervised_engines

(* Every engine under every limit kind stops cleanly with the right
   cause, keeps the detections gathered so far (each a verbatim prefix
   fact of the reference run), and reports coverage as a lower bound. *)
type limited_run =
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  Faultsim.universe ->
  bool array array ->
  Faultsim.summary

let limited_engines : (string * limited_run) list =
  [
    ( "serial",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_serial ?deadline ?max_evals ?interrupt u pats );
    ( "ppsfp",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_ppsfp ?deadline ?max_evals ?interrupt u pats );
    ( "ppsfp x2",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_ppsfp ~num_domains:2 ?deadline ?max_evals ?interrupt u pats );
  ]

let check_partial name reference expected_cause (s : Faultsim.summary) =
  (match s.Faultsim.outcome with
  | Outcome.Partial { Outcome.stopped = Some c; failed_sites = [] } ->
      check (name ^ ": stop cause") true (c = expected_cause)
  | o -> Alcotest.fail (Fmt.str "%s: expected a stopped partial, got %s" name (Outcome.to_string o)));
  (* nothing invented: every detection the partial run reports is the
     reference run's detection for that site *)
  check (name ^ ": detections are a subset of the reference") true
    (Array.for_all2
       (fun p r -> p = None || p = r)
       s.Faultsim.first_detection reference.Faultsim.first_detection);
  check (name ^ ": coverage is a lower bound") true
    (Faultsim.coverage s <= Faultsim.coverage reference);
  check_i (name ^ ": exit code 2") 2 (Outcome.exit_code s.Faultsim.outcome)

let test_deadline_partial () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false u pats in
  let past = Unix.gettimeofday () -. 1.0 in
  List.iter
    (fun (name, (run : limited_run)) ->
      check_partial name reference Outcome.Deadline (run ~deadline:past u pats))
    limited_engines

let test_max_evals_partial () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false u pats in
  List.iter
    (fun (name, (run : limited_run)) ->
      let s = run ~max_evals:50 u pats in
      check_partial name reference Outcome.Max_evals s;
      check (name ^ ": stopped before the end") true
        (s.Faultsim.patterns_done < Array.length pats);
      check (name ^ ": an empty budget is refused") true
        (match run ~max_evals:0 u pats with exception Invalid_argument _ -> true | _ -> false))
    limited_engines

let test_interrupt_partial () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false u pats in
  List.iter
    (fun (name, (run : limited_run)) ->
      check_partial name reference Outcome.Interrupted
        (run ~interrupt:(fun () -> true) u pats))
    limited_engines

(* An unreachable limit changes nothing: outcome stays [Complete] and the
   summary is bit-identical to the unlimited run. *)
let test_lax_limits_are_free () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false u pats in
  List.iter
    (fun (name, (run : limited_run)) ->
      let s =
        run ~deadline:(Unix.gettimeofday () +. 3600.0) ~max_evals:max_int
          ~interrupt:(fun () -> false) u pats
      in
      check (name ^ ": complete") true (Outcome.is_complete s.Faultsim.outcome);
      check (name ^ ": identical results") true
        (s.Faultsim.first_detection = reference.Faultsim.first_detection);
      check_i (name ^ ": exit code 0") 0 (Outcome.exit_code s.Faultsim.outcome))
    limited_engines

(* --- Checkpoint/resume ------------------------------------------------------- *)

let with_temp_checkpoint f =
  let path = Filename.temp_file "dynmos_ckpt" ".dat" in
  Sys.remove path;
  (* engines write it themselves (atomic rename) *)
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* Interrupt a campaign partway, then resume from the checkpoint file:
   the combined runs must be bit-identical to one uninterrupted run, the
   resumed run must be [Complete], and no pattern may be evaluated twice
   (checked through the evals counter for the serial engine). *)
let test_checkpoint_resume_serial () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false u pats in
  with_temp_checkpoint @@ fun path ->
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:7 u pats in
  let s1 = Faultsim.run_serial ~drop:false ~max_evals:400 ~checkpoint:ctl u pats in
  check "first leg stopped" true (not (Outcome.is_complete s1.Faultsim.outcome));
  check "first leg left a checkpoint" true (Sys.file_exists path);
  let ctl2 = Faultsim.checkpoint_ctl ~path ~interval:7 ~resume:true u pats in
  let s2 = Faultsim.run_serial ~drop:false ~checkpoint:ctl2 u pats in
  check "resumed leg complete" true (Outcome.is_complete s2.Faultsim.outcome);
  check "combined = uninterrupted" true
    (s2.Faultsim.first_detection = reference.Faultsim.first_detection)

let test_checkpoint_resume_domains () =
  let u, pats = robustness_fixture () in
  let reference = Faultsim.run_serial ~drop:false u pats in
  with_temp_checkpoint @@ fun path ->
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:3 u pats in
  let s1 =
    Faultsim.run_ppsfp ~drop:false ~num_domains:2 ~max_evals:1 ~checkpoint:ctl u pats
  in
  check "first leg stopped" true (not (Outcome.is_complete s1.Faultsim.outcome));
  check "a pattern prefix recorded" true
    (s1.Faultsim.patterns_done > 0 && s1.Faultsim.patterns_done < Array.length pats);
  let ctl2 = Faultsim.checkpoint_ctl ~path ~interval:3 ~resume:true u pats in
  let s2 = Faultsim.run_ppsfp ~drop:false ~num_domains:2 ~checkpoint:ctl2 u pats in
  check "resumed leg complete" true (Outcome.is_complete s2.Faultsim.outcome);
  check "combined = uninterrupted" true
    (s2.Faultsim.first_detection = reference.Faultsim.first_detection)

let raises_checkpoint_error f =
  match f () with exception Checkpoint.Error _ -> true | _ -> false

(* Digest pinning: a checkpoint written for one campaign must refuse to
   resume another circuit or pattern set; engine and domain count are
   free to differ. *)
let test_checkpoint_validation () =
  let u, pats = robustness_fixture () in
  with_temp_checkpoint @@ fun path ->
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:5 u pats in
  ignore (Faultsim.run_serial ~drop:false ~checkpoint:ctl u pats);
  check "resume with other patterns refused" true
    (raises_checkpoint_error (fun () ->
         let prng = Prng.create 999 in
         let other = Faultsim.random_patterns prng ~n_inputs:8 ~count:100 in
         Faultsim.checkpoint_ctl ~path ~interval:5 ~resume:true u other));
  check "resume with another circuit refused" true
    (raises_checkpoint_error (fun () ->
         let u2 = Faultsim.universe (Generators.c17 ~style:`Domino ()) in
         Faultsim.checkpoint_ctl ~path ~interval:5 ~resume:true u2 pats))

(* Every engine sweeps patterns in ascending units, so checkpoints are
   interchangeable: a campaign stopped after two units by one engine
   resumes under another — or at another domain count — and ends
   bit-identical to an uninterrupted run.  Serial resumes a file left
   by 62-pattern units with one-pattern units. *)
type resumable =
  ?checkpoint:Checkpoint.ctl -> ?interrupt:(unit -> bool) -> unit -> Faultsim.summary

let test_checkpoint_cross_engine () =
  let u, pats = Lazy.force rand1k in
  let reference = (Faultsim.run_ppsfp u pats).Faultsim.first_detection in
  let engines : (string * resumable) list =
    [
      ( "ppsfp x2",
        fun ?checkpoint ?interrupt () ->
          Faultsim.run_ppsfp ~num_domains:2 ?checkpoint ?interrupt u pats );
      ("ppsfp", fun ?checkpoint ?interrupt () -> Faultsim.run_ppsfp ?checkpoint ?interrupt u pats);
      ( "serial",
        fun ?checkpoint ?interrupt () -> Faultsim.run_serial ?checkpoint ?interrupt u pats );
    ]
  in
  List.iter
    (fun (a, b) ->
      with_temp_checkpoint @@ fun path ->
      let polls = ref 0 in
      let first =
        (List.assoc a engines)
          ~checkpoint:(Faultsim.checkpoint_ctl ~path ~interval:62 u pats)
          ~interrupt:(fun () ->
            incr polls;
            !polls >= 2)
          ()
      in
      check (a ^ ": stopped after two units") true (first.Faultsim.patterns_done = 124);
      let resumed =
        (List.assoc b engines)
          ~checkpoint:(Faultsim.checkpoint_ctl ~path ~interval:62 ~resume:true u pats)
          ()
      in
      check (Fmt.str "%s checkpoint resumed by %s is bit-identical" a b) true
        (Outcome.is_complete resumed.Faultsim.outcome
        && resumed.Faultsim.first_detection = reference))
    [ ("ppsfp x2", "ppsfp"); ("ppsfp", "ppsfp x2"); ("ppsfp x2", "serial") ]

(* Older builds' domains engine swept sites and wrote [mode sites]
   checkpoints with a done bitmap.  Such a file has no pattern prefix to
   resume from: it must be refused with a named error. *)
let test_checkpoint_sites_mode_refused () =
  let u, pats = robustness_fixture () in
  with_temp_checkpoint @@ fun path ->
  Legacy_checkpoint.write_sites_mode ~path u pats;
  match Faultsim.checkpoint_ctl ~path ~interval:5 ~resume:true u pats with
  | exception Checkpoint.Error msg ->
      check "the error names mode sites" true (contains msg "mode sites")
  | _ -> Alcotest.fail "a mode sites checkpoint must not resume"

(* A crash-torn checkpoint (truncated mid-write would only ever be the
   .tmp file thanks to the atomic rename, but disks corrupt too) is
   detected by the checksum trailer and reported as truncation, never
   parsed into a half-resumed campaign. *)
let test_checkpoint_truncation_detected () =
  let u, pats = robustness_fixture () in
  with_temp_checkpoint @@ fun path ->
  let ctl = Faultsim.checkpoint_ctl ~path ~interval:5 u pats in
  ignore (Faultsim.run_serial ~drop:false ~checkpoint:ctl u pats);
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full - 17));
  close_out oc;
  match Checkpoint.load path with
  | exception Checkpoint.Error msg ->
      check "reported as truncation/corruption" true
        (contains msg "truncated" || contains msg "checksum")
  | _ -> Alcotest.fail "truncated checkpoint must not load"

(* QCheck: checkpoint round-trip on random circuits — stop a campaign
   with a tiny evaluation budget, resume from the file, and the combined
   detections are bit-identical to an uninterrupted run, for serial and
   for PPSFP on one domain and on two. *)
let qcheck_checkpoint_roundtrip =
  QCheck2.Test.make ~name:"checkpoint resume is bit-identical" ~count:15
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 4 8))
    (fun (seed, n_inputs) ->
      let nl =
        Generators.random_monotone ~seed ~n_inputs ~n_gates:15
          ~technology:Technology.Domino_cmos ()
      in
      let u = Faultsim.universe nl in
      let prng = Prng.create seed in
      let pats = Faultsim.random_patterns prng ~n_inputs ~count:60 in
      let reference = Faultsim.run_serial ~drop:false u pats in
      let roundtrip run =
        with_temp_checkpoint @@ fun path ->
        let ctl = Faultsim.checkpoint_ctl ~path ~interval:2 u pats in
        ignore (run ~max_evals:(Some 60) ~checkpoint:ctl u pats);
        let ctl2 = Faultsim.checkpoint_ctl ~path ~interval:2 ~resume:true u pats in
        let s = run ~max_evals:None ~checkpoint:ctl2 u pats in
        Outcome.is_complete s.Faultsim.outcome
        && s.Faultsim.first_detection = reference.Faultsim.first_detection
      in
      List.for_all roundtrip
        [
          (fun ~max_evals ~checkpoint u pats ->
            Faultsim.run_serial ~drop:false ?max_evals ~checkpoint u pats);
          (fun ~max_evals ~checkpoint u pats ->
            Faultsim.run_ppsfp ~drop:false ?max_evals ~checkpoint u pats);
          (fun ~max_evals ~checkpoint u pats ->
            Faultsim.run_ppsfp ~drop:false ~num_domains:2 ?max_evals ~checkpoint u pats);
        ])

(* --- Diagnosis ------------------------------------------------------------- *)

let test_diagnosis_dictionary () =
  let u = fig9_u () in
  let pats = Faultsim.exhaustive_patterns 5 in
  let dict = Diagnosis.dictionary u pats in
  (* the exhaustive dictionary resolves every class down to itself *)
  Array.iter
    (fun site ->
      match Diagnosis.diagnose_site dict site with
      | [ s ] -> check_i "unique diagnosis" site.Faultsim.sid s.Faultsim.sid
      | l -> Alcotest.fail (Fmt.str "ambiguous diagnosis (%d candidates)" (List.length l)))
    u.Faultsim.sites;
  (* the fault-free machine is recognized as such *)
  let good = Array.map (fun p -> Diagnosis.pack_outputs (Dynmos_sim.Compiled.eval u.Faultsim.compiled p)) pats in
  check "fault-free recognized" true (Diagnosis.looks_fault_free dict good);
  check "fault-free diagnoses to nothing" true (Diagnosis.diagnose dict good = [])

let test_diagnosis_distinguishable () =
  (* The Section-5 table's classes are mutually distinguishable — that is
     what makes them *classes*. *)
  let u = fig9_u () in
  check "fig9 classes pairwise distinguishable" true (Diagnosis.pairwise_distinguishable u);
  (* two specific classes and their separating pattern *)
  let site_of cid =
    Array.to_list u.Faultsim.sites
    |> List.find (fun s -> s.Faultsim.entry.Faultlib.class_id = cid)
  in
  match Diagnosis.distinguishing_pattern u (site_of 9) (site_of 10) with
  | Some _ -> check "stuck-0 vs stuck-1 separable" true true
  | None -> Alcotest.fail "expected distinguishing pattern"

let test_diagnosis_groups () =
  let u = fig9_u () in
  (* With a single pattern, most classes are indistinguishable; groups
     must partition all sites. *)
  let dict1 = Diagnosis.dictionary u [| [| true; true; false; false; false |] |] in
  let groups = Diagnosis.equivalence_groups dict1 in
  let total = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
  check_i "partition covers all sites" (Faultsim.n_sites u) total;
  check "coarser than exhaustive" true (List.length groups < Faultsim.n_sites u)

let test_diagnosing_patterns () =
  let u = fig9_u () in
  let pats, groups = Diagnosis.diagnosing_patterns u in
  (* greedy adaptive set: a handful of vectors fully separates the 10
     classes of fig9 (they are pairwise distinguishable) *)
  check "all groups singleton" true (List.for_all (fun g -> List.length g = 1) groups);
  check "compact set" true (Array.length pats <= 10);
  (* and it really diagnoses *)
  let dict = Diagnosis.dictionary u pats in
  Array.iter
    (fun site ->
      match Diagnosis.diagnose_site dict site with
      | [ s ] -> check_i "unique" site.Faultsim.sid s.Faultsim.sid
      | _ -> Alcotest.fail "ambiguous under diagnosing set")
    u.Faultsim.sites

(* The random circuits of the structural properties: [random_monotone]
   (uniform connectivity, so fanout reconverges; every unconsumed net is
   a primary output, so most circuits have several), rebuilt with every
   [tap]-th gate output (none when [tap] = 0) also tapped as a primary
   output — outputs that feed further gates too. *)
let random_circuit ~seed ~n_inputs ~tap =
  let nl =
    Generators.random_monotone ~seed ~n_inputs ~n_gates:15
      ~technology:Technology.Domino_cmos ()
  in
  let b = Netlist.Builder.create (Netlist.name nl) in
  Netlist.Builder.inputs b (Netlist.inputs nl);
  let gates = Netlist.gate_array nl in
  Array.iter
    (fun g ->
      ignore
        (Netlist.Builder.add b g.Netlist.cell ~inputs:g.Netlist.input_nets
           ~output:g.Netlist.output_net))
    gates;
  let outs = Netlist.outputs nl in
  List.iter (Netlist.Builder.output b) outs;
  Array.iteri
    (fun i g ->
      if tap > 0 && i mod tap = 0 && not (List.mem g.Netlist.output_net outs) then
        Netlist.Builder.output b g.Netlist.output_net)
    gates;
  Netlist.Builder.finish b

let circuit_gen = QCheck2.Gen.(triple (int_range 1 1000) (int_range 4 8) (int_range 0 5))

(* Gates in the transitive fanout of [gid] (excluding [gid]), by DFS over
   the consumer lists. *)
let fanout_size c gid =
  let seen = Array.make (Compiled.n_gates c) false in
  let rec go g =
    Array.iter
      (fun h ->
        if not seen.(h) then begin
          seen.(h) <- true;
          go h
        end)
      (Compiled.consumers c g)
  in
  go gid;
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen

(* QCheck: each gate's consumer list holds exactly the gates that read
   its output, in ascending order, with no duplicates. *)
let qcheck_consumer_lists =
  QCheck2.Test.make ~name:"consumer lists exact, ascending, duplicate-free" ~count:30
    circuit_gen
    (fun (seed, n_inputs, tap) ->
      let c = Compiled.compile (random_circuit ~seed ~n_inputs ~tap) in
      let cg = Compiled.gates c in
      Array.for_all
        (fun g ->
          let out = g.Compiled.out in
          let readers =
            List.filter
              (fun h -> Array.exists (( = ) out) cg.(h).Compiled.ins)
              (List.init (Array.length cg) Fun.id)
          in
          Compiled.consumers c g.Compiled.g.Netlist.id = Array.of_list readers)
        cg)

(* QCheck: event-driven injection against whole-circuit injection, for
   every gate and random faulty functions (plus the gate's own function,
   which never activates): the result is the OR over all primary
   outputs of faulty lxor good, the scratch is the good sweep again
   afterwards, and the tally is 1 for a fault that is not activated and
   at most 1 plus the transitive fanout otherwise. *)
let qcheck_event_driven_injection =
  QCheck2.Test.make ~name:"event-driven injection = whole-circuit injection" ~count:30
    circuit_gen
    (fun (seed, n_inputs, tap) ->
      let c = Compiled.compile (random_circuit ~seed ~n_inputs ~tap) in
      let prng = Prng.create seed in
      let words = Array.init (Compiled.n_inputs c) (fun _ -> Prng.bits62 prng) in
      let scratch = Compiled.make_scratch c in
      Compiled.eval_words_into c ~scratch words;
      let good = Array.copy scratch in
      let events = Compiled.make_events c in
      let po = Compiled.po_indices c in
      Array.for_all
        (fun cg ->
          let gid = cg.Compiled.g.Netlist.id in
          let arity = cg.Compiled.fn.Compiled.arity in
          let random_fn () =
            let mask = Prng.bits62 prng in
            Compiled.fn_of_table
              (Dynmos_expr.Truth_table.create (Array.init arity (Fmt.str "x%d")) (fun row ->
                   (mask lsr row) land 1 = 1))
          in
          List.for_all
            (fun fn ->
              let tally = ref 0 in
              let diff = Compiled.eval_fault_into ~tally c ~override:(gid, fn) ~scratch ~events in
              let faulty = Compiled.eval_words ~override:(gid, fn) c words in
              let expected =
                Array.fold_left (fun acc p -> acc lor (faulty.(p) lxor good.(p))) 0 po
              in
              let activated =
                Compiled.eval_fn fn (Array.map (fun net -> good.(net)) cg.Compiled.ins)
                <> good.(cg.Compiled.out)
              in
              diff = expected && scratch = good
              && if activated then !tally <= 1 + fanout_size c gid else !tally = 1)
            (cg.Compiled.fn :: List.init 4 (fun _ -> random_fn ())))
        (Compiled.gates c))

(* QCheck: PPSFP differential — the 62-pattern bit-parallel words give
   the first detections of the one-pattern serial reference on random
   circuits, for both drop settings. *)
let qcheck_ppsfp_differential =
  QCheck2.Test.make ~name:"ppsfp = bit-parallel on random circuits" ~count:25
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 4 8))
    (fun (seed, n_inputs) ->
      let nl =
        Generators.random_monotone ~seed ~n_inputs ~n_gates:14
          ~technology:Technology.Domino_cmos ()
      in
      let u = Faultsim.universe nl in
      let prng = Prng.create seed in
      let pats = Faultsim.random_patterns prng ~n_inputs ~count:70 in
      let reference = Faultsim.run_serial ~drop:false u pats in
      List.for_all
        (fun drop ->
          (Faultsim.run_ppsfp ~drop u pats).Faultsim.first_detection
          = reference.Faultsim.first_detection)
        [ false; true ])

(* QCheck: engine agreement on random monotone circuits and patterns. *)
let qcheck_engines =
  QCheck2.Test.make ~name:"engines agree on random circuits" ~count:20
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 4 8))
    (fun (seed, n_inputs) ->
      let nl =
        Generators.random_monotone ~seed ~n_inputs ~n_gates:10
          ~technology:Technology.Domino_cmos ()
      in
      let u = Faultsim.universe nl in
      let prng = Prng.create seed in
      let pats = Faultsim.random_patterns prng ~n_inputs ~count:50 in
      engines_agree u pats)

let () =
  Alcotest.run "faultsim"
    [
      ( "universe",
        [
          Alcotest.test_case "fig9 sites" `Quick test_universe_fig9;
          Alcotest.test_case "library sharing" `Quick test_universe_shares_libraries;
          Alcotest.test_case "single detection" `Quick test_detects;
          Alcotest.test_case "structural validation" `Quick test_validate_universe;
          Alcotest.test_case "gate restriction" `Quick test_restrict_universe;
        ] );
      ( "engines",
        [
          Alcotest.test_case "agree on fig9 (exhaustive)" `Quick test_engines_agree_fig9;
          Alcotest.test_case "oracle = brute-force detects scan" `Quick test_oracle_brute_force;
          Alcotest.test_case "agree on benchmarks" `Quick test_engines_agree_benchmarks;
          Alcotest.test_case "agree at word-boundary pattern counts" `Quick
            test_engines_agree_edge_counts;
          Alcotest.test_case "agree on multi-output circuits" `Quick
            test_engines_agree_multi_output;
          Alcotest.test_case "exhaustive full coverage" `Quick test_exhaustive_full_coverage;
          Alcotest.test_case "coverage monotone in patterns" `Quick test_more_patterns_dont_hurt;
          Alcotest.test_case "fault dropping consistent" `Quick test_drop_consistency;
        ] );
      ( "fanout-cone",
        [
          Alcotest.test_case "reconvergent circuit" `Quick test_cone_reconvergent;
          Alcotest.test_case "reconvergent random circuits" `Quick test_cone_reconvergent_random;
        ] );
      ( "domain-parallel",
        [
          Alcotest.test_case "equal across domain counts" `Quick test_domain_counts_equal;
          Alcotest.test_case "drop/no-drop identical" `Quick test_domain_drop_semantics;
          Alcotest.test_case "degenerate shapes" `Quick test_domain_empty_universe;
          Alcotest.test_case "rand1k = bit-parallel, crashes included" `Quick
            test_domains_differential;
          Alcotest.test_case "armed chaos keeps one sweeping domain" `Quick
            test_chaos_keeps_one_domain;
        ] );
      ( "ppsfp",
        [
          Alcotest.test_case "restricted universes" `Quick test_ppsfp_restricted_universe;
        ] );
      ( "results",
        [
          Alcotest.test_case "coverage curve" `Quick test_coverage_curve;
          Alcotest.test_case "weighted patterns" `Quick test_weighted_patterns;
          Alcotest.test_case "exhaustive patterns" `Quick test_exhaustive_patterns;
        ] );
      ( "validation",
        [
          Alcotest.test_case "exhaustive bounds" `Quick test_exhaustive_bounds;
          Alcotest.test_case "random_patterns arguments" `Quick test_random_patterns_validation;
        ] );
      ( "observability",
        [
          Alcotest.test_case "obs on/off parity" `Quick test_obs_parity;
          Alcotest.test_case "eval counters reconcile with serial" `Quick
            test_obs_eval_reconciliation;
          Alcotest.test_case "unified totals across engines" `Quick
            test_unified_accounting_totals;
          Alcotest.test_case "cone cuts gate evals, not invocations" `Quick test_cone_gate_evals;
          Alcotest.test_case "all-detected early exit accounting" `Quick
            test_early_exit_accounting;
          Alcotest.test_case "domain clamp" `Quick test_domain_clamp;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "transient crashes recovered" `Quick
            test_transient_crash_recovered;
          Alcotest.test_case "permanent crashes isolated" `Quick
            test_permanent_crash_isolated;
          Alcotest.test_case "deadline stops cleanly" `Quick test_deadline_partial;
          Alcotest.test_case "eval budget stops cleanly" `Quick test_max_evals_partial;
          Alcotest.test_case "interrupt stops cleanly" `Quick test_interrupt_partial;
          Alcotest.test_case "lax limits change nothing" `Quick test_lax_limits_are_free;
          Alcotest.test_case "checkpoint/resume serial" `Quick test_checkpoint_resume_serial;
          Alcotest.test_case "checkpoint/resume domains" `Quick
            test_checkpoint_resume_domains;
          Alcotest.test_case "checkpoint digests pin the campaign" `Quick
            test_checkpoint_validation;
          Alcotest.test_case "truncated checkpoint detected" `Quick
            test_checkpoint_truncation_detected;
          Alcotest.test_case "checkpoints resume across engines" `Quick
            test_checkpoint_cross_engine;
          Alcotest.test_case "mode sites checkpoint refused" `Quick
            test_checkpoint_sites_mode_refused;
        ] );
      ( "diagnosis",
        [
          Alcotest.test_case "exhaustive dictionary" `Quick test_diagnosis_dictionary;
          Alcotest.test_case "pairwise distinguishable" `Quick test_diagnosis_distinguishable;
          Alcotest.test_case "equivalence groups" `Quick test_diagnosis_groups;
          Alcotest.test_case "adaptive diagnosing set" `Quick test_diagnosing_patterns;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_engines;
          QCheck_alcotest.to_alcotest qcheck_ppsfp_differential;
          QCheck_alcotest.to_alcotest qcheck_consumer_lists;
          QCheck_alcotest.to_alcotest qcheck_event_driven_injection;
          QCheck_alcotest.to_alcotest qcheck_checkpoint_roundtrip;
        ] );
    ]

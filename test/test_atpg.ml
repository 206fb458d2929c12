open Dynmos_cell
open Dynmos_netlist
open Dynmos_faultsim
open Dynmos_atpg
open Dynmos_circuits

(* Tests for the PODEM baseline: generated vectors really detect their
   faults, full sets reach full coverage on detectable universes, and
   netlist-level redundancy is recognized as untestable. *)

let check = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let test_single_fault () =
  let u = Faultsim.universe (Generators.fig9_network ()) in
  Array.iter
    (fun site ->
      match Podem.generate u site with
      | Podem.Test v ->
          check (Faultsim.site_label u site) true (Faultsim.detects u site v)
      | Podem.Untestable | Podem.Aborted ->
          Alcotest.fail (Fmt.str "no test for %s" (Faultsim.site_label u site)))
    u.Faultsim.sites

let full_coverage nl =
  let u = Faultsim.universe nl in
  let r = Podem.generate_set u in
  let s = Faultsim.run_ppsfp u r.Podem.vectors in
  (u, r, Faultsim.coverage s)

let test_full_sets () =
  (* PODEM must cover every *testable* fault: coverage equals the fraction
     of sites with a Test verdict, nothing aborts, and any Untestable
     verdict is a genuine netlist-level redundancy (cross-checked by
     exhaustive simulation where feasible). *)
  List.iter
    (fun nl ->
      let u, r, cov = full_coverage nl in
      let n = Faultsim.n_sites u in
      let tests =
        Array.fold_left
          (fun acc v -> match v with Podem.Test _ -> acc + 1 | _ -> acc)
          0 r.Podem.per_site
      in
      let aborted =
        Array.exists (function Podem.Aborted -> true | _ -> false) r.Podem.per_site
      in
      check (Netlist.name nl ^ " no aborts") false aborted;
      Alcotest.(check (float 1e-9))
        (Netlist.name nl ^ " coverage = testable fraction")
        (float_of_int tests /. float_of_int n)
        cov;
      let n_in = List.length (Netlist.inputs nl) in
      if n_in <= 10 then begin
        let s = Faultsim.run_ppsfp ~drop:false u (Faultsim.exhaustive_patterns n_in) in
        Array.iteri
          (fun sid verdict ->
            match (verdict, s.Faultsim.first_detection.(sid)) with
            | Podem.Untestable, Some _ ->
                Alcotest.fail (Netlist.name nl ^ ": PODEM wrongly declared untestable")
            | _ -> ())
          r.Podem.per_site
      end)
    [
      Generators.c17 ~style:`Static ();
      Generators.c17 ~style:`Domino ();
      Generators.carry_chain ~technology:Technology.Domino_cmos 8;
      Generators.parity ~style:`Domino 5;
      Generators.decoder ~style:`Domino 3;
      Generators.mux_tree ~style:`Domino 2;
      Generators.random_monotone ~seed:8 ~n_inputs:7 ~n_gates:15
        ~technology:Technology.Domino_cmos ();
    ]

let test_compaction () =
  (* Fault dropping keeps the vector count well below the site count. *)
  let u, r, _ = full_coverage (Generators.carry_chain ~technology:Technology.Domino_cmos 8) in
  check "fewer vectors than sites" true
    (Array.length r.Podem.vectors < Faultsim.n_sites u);
  check "some dropped by simulation" true (r.Podem.covered_by_simulation > 0)

let test_untestable_redundancy () =
  (* Netlist-level masking: z = (a AND b) OR (a AND b) — a stuck-0 class
     of one branch is masked by the other only if the branches were
     different; build true masking with w = a*b, z = w + a*b ... here we
     use two identical AND gates feeding an OR: a fault making one AND
     output 0 is masked because the other still computes a*b. *)
  let and2 = Stdcells.and_gate 2 Technology.Domino_cmos in
  let or2 = Stdcells.or_gate 2 Technology.Domino_cmos in
  let b = Netlist.Builder.create "redundant" in
  let a = Netlist.Builder.input b "a" in
  let c = Netlist.Builder.input b "c" in
  let w1 = Netlist.Builder.add b and2 ~inputs:[ a; c ] ~output:"w1" in
  let w2 = Netlist.Builder.add b and2 ~inputs:[ a; c ] ~output:"w2" in
  let z = Netlist.Builder.add b or2 ~inputs:[ w1; w2 ] ~output:"z" in
  Netlist.Builder.output b z;
  let nl = Netlist.Builder.finish b in
  let u = Faultsim.universe nl in
  let r = Podem.generate_set u in
  let untestable =
    Array.to_list r.Podem.per_site
    |> List.filter (fun x -> match x with Podem.Untestable -> true | _ -> false)
  in
  check "some untestable faults" true (List.length untestable > 0);
  (* PODEM's untestable verdicts are consistent with exhaustive
     simulation. *)
  let s = Faultsim.run_ppsfp u (Faultsim.exhaustive_patterns 2) in
  Array.iteri
    (fun sid verdict ->
      match (verdict, s.Faultsim.first_detection.(sid)) with
      | Podem.Untestable, Some _ -> Alcotest.fail "PODEM wrongly declared untestable"
      | Podem.Test _, None -> Alcotest.fail "PODEM test but exhaustive missed it?"
      | _ -> ())
    r.Podem.per_site

let test_vectors_are_verified () =
  (* Every vector returned by generate_set detects at least one site. *)
  let u = Faultsim.universe (Generators.c17 ~style:`Domino ()) in
  let r = Podem.generate_set u in
  Array.iter
    (fun v ->
      check "vector useful" true
        (Array.exists (fun site -> Faultsim.detects u site v) u.Faultsim.sites))
    r.Podem.vectors

let test_schedule_double () =
  let vs = [| [| true |]; [| false |] |] in
  let d = Podem.schedule_double vs in
  check_i "doubled" 4 (Array.length d);
  check "first half" true (Array.sub d 0 2 = vs);
  check "second half" true (Array.sub d 2 2 = vs)

let test_eval_fn3_consistency () =
  (* The 3-valued co-simulation must agree with 2-valued evaluation on
     fully defined inputs: implied by generate's tests being verified, but
     check directly on a known circuit via a definite vector. *)
  let u = Faultsim.universe (Generators.fig9_network ()) in
  let site = u.Faultsim.sites.(0) in
  match Podem.generate u site with
  | Podem.Test v -> check "definite test" true (Faultsim.detects u site v)
  | _ -> Alcotest.fail "expected test"


(* --- Two-pattern tests for static CMOS stuck-opens -------------------------- *)

let test_two_pattern_fig1 () =
  let nor = Stdcells.fig1_nor in
  let fault = Dynmos_core.Fault.Network_open 1 in
  match Two_pattern.generate nor fault with
  | None -> Alcotest.fail "expected a two-pattern test"
  | Some pair ->
      check "pair validates back to back" true (Two_pattern.validates nor fault pair);
      (* P2 must be the retain vector (1,0) *)
      check "p2 in retain region" true (pair.Two_pattern.p2 = [| true; false |]);
      (* inserting the vector (0,1) between them re-drives the node and
         invalidates the test — the scan-shifting problem *)
      check "intermediate invalidates" true
        (Two_pattern.invalidated_by nor fault pair [| false; true |])

let test_two_pattern_all_sequential () =
  (* Every sequential fault of small static cells gets a validated pair. *)
  List.iter
    (fun cell ->
      List.iter
        (fun f ->
          match Dynmos_core.Fault_map.map cell f with
          | Dynmos_core.Fault_map.Sequential _ -> (
              match Two_pattern.generate cell f with
              | Some pair ->
                  check
                    (Fmt.str "%s/%s" (Cell.name cell) (Dynmos_core.Fault.label cell f))
                    true
                    (Two_pattern.validates cell f pair)
              | None -> Alcotest.fail "missing two-pattern test")
          | _ -> ())
        (Dynmos_core.Fault.enumerate cell))
    [
      Stdcells.fig1_nor;
      Stdcells.nand 2 Technology.Static_cmos;
      Stdcells.nand 3 Technology.Static_cmos;
      Stdcells.nor 3 Technology.Static_cmos;
      Stdcells.ao ~groups:[ 2; 1 ] Technology.Static_cmos;
    ]

let test_two_pattern_rejects () =
  check "combinational fault has no pair" true
    (Two_pattern.generate (Stdcells.nand 2 Technology.Static_cmos)
       (Dynmos_core.Fault.Stuck_at ("a", false))
    = None);
  check "non-static cell rejected" true
    (match Two_pattern.generate Stdcells.fig9 (Dynmos_core.Fault.Network_open 1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_compare_cells () =
  (* The paper's cost argument: the same NOR function costs more test
     applications in static CMOS (pairs for the stuck-opens) than the
     dual OR gate costs in domino (one vector per class). *)
  let cmp =
    Two_pattern.compare_cells
      ~static_cell:(Stdcells.nor 2 Technology.Static_cmos)
      ~dynamic_cell:(Stdcells.or_gate 2 Technology.Domino_cmos)
  in
  check "static has sequential faults" true (cmp.Two_pattern.sequential_faults > 0);
  check "all got pairs" true
    (cmp.Two_pattern.two_pattern_tests = cmp.Two_pattern.sequential_faults);
  check "static needs more applications" true
    (cmp.Two_pattern.static_applications > cmp.Two_pattern.dynamic_applications)

(* QCheck: on random monotone circuits PODEM's verdicts match exhaustive
   fault simulation exactly. *)
let qcheck_podem_complete =
  QCheck2.Test.make ~name:"PODEM verdicts match exhaustive simulation" ~count:15
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      let nl =
        Generators.random_monotone ~seed ~n_inputs:5 ~n_gates:8
          ~technology:Technology.Domino_cmos ()
      in
      let u = Faultsim.universe nl in
      let s = Faultsim.run_ppsfp ~drop:false u (Faultsim.exhaustive_patterns 5) in
      Array.for_all
        (fun site ->
          let detectable = s.Faultsim.first_detection.(site.Faultsim.sid) <> None in
          match Podem.generate u site with
          | Podem.Test v -> detectable && Faultsim.detects u site v
          | Podem.Untestable -> not detectable
          | Podem.Aborted -> true)
        u.Faultsim.sites)

let () =
  Alcotest.run "atpg"
    [
      ( "podem",
        [
          Alcotest.test_case "single faults on fig9" `Quick test_single_fault;
          Alcotest.test_case "full sets reach 100%" `Slow test_full_sets;
          Alcotest.test_case "compaction by dropping" `Quick test_compaction;
          Alcotest.test_case "redundancy is untestable" `Quick test_untestable_redundancy;
          Alcotest.test_case "vectors verified" `Quick test_vectors_are_verified;
          Alcotest.test_case "A2 double application" `Quick test_schedule_double;
          Alcotest.test_case "3-valued consistency" `Quick test_eval_fn3_consistency;
        ] );
      ( "two_pattern",
        [
          Alcotest.test_case "fig1 pair + scan invalidation" `Quick test_two_pattern_fig1;
          Alcotest.test_case "all sequential faults get pairs" `Quick
            test_two_pattern_all_sequential;
          Alcotest.test_case "rejections" `Quick test_two_pattern_rejects;
          Alcotest.test_case "static vs dynamic cost" `Quick test_compare_cells;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_podem_complete ]);
    ]

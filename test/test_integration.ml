open Dynmos_util
open Dynmos_expr
open Dynmos_cell
open Dynmos_core
open Dynmos_netlist
open Dynmos_sim
open Dynmos_faultsim
open Dynmos_protest
open Dynmos_atpg
open Dynmos_circuits

(* End-to-end pipelines across the whole system:

   1. cell text -> fault library -> netlist -> PROTEST -> patterns ->
      validated coverage;
   2. the full A1/A2 story: deterministic set applied twice vs random
      patterns, on the charge-level simulator;
   3. cross-technology consistency: the same function in static CMOS and
      domino yields the same good behaviour while only static faults are
      sequential. *)

let check = Alcotest.(check bool)

let test_text_to_validated_test () =
  (* Parse a two-cell library from text, instantiate a network of those
     cells, run the whole PROTEST pipeline, and fault-simulate the
     proposed random test. *)
  let text =
    "TECHNOLOGY domino-CMOS;\nNAME aotree;\nINPUT a,b,c;\nOUTPUT z;\n\
     x1 := a*b;\nz := x1+c;\n\
     TECHNOLOGY domino-CMOS;\nNAME pair;\nINPUT a,b;\nOUTPUT z;\nz := a*b;\n"
  in
  let cells = Cell_parser.cells text in
  let aotree = List.find (fun c -> Cell.name c = "aotree") cells in
  let pair = List.find (fun c -> Cell.name c = "pair") cells in
  let b = Netlist.Builder.create "mixed" in
  Netlist.Builder.inputs b [ "i1"; "i2"; "i3"; "i4"; "i5" ];
  let w1 = Netlist.Builder.add b pair ~inputs:[ "i1"; "i2" ] ~output:"w1" in
  let w2 = Netlist.Builder.add b aotree ~inputs:[ w1; "i3"; "i4" ] ~output:"w2" in
  let z = Netlist.Builder.add b pair ~inputs:[ w2; "i5" ] ~output:"z" in
  Netlist.Builder.output b z;
  let nl = Netlist.Builder.finish b in
  let report = Protest.analyze ~confidence:0.999 nl in
  let v = Protest.validate ~seed:3 report in
  check "test length positive" true (v.Protest.applied > 0);
  check "coverage high" true (v.Protest.achieved_coverage >= 0.9)

let test_podem_beats_uniform_on_hard_circuit () =
  (* The E10 shape: on a wide AND, PODEM needs a handful of vectors while
     uniform random patterns of the same count miss the hard faults. *)
  let nl = Generators.wide_and ~technology:Technology.Domino_cmos 12 in
  let u = Faultsim.universe nl in
  let r = Podem.generate_set u in
  let podem_cov = Faultsim.coverage (Faultsim.run_ppsfp u r.Podem.vectors) in
  Alcotest.(check (float 1e-9)) "PODEM full" 1.0 podem_cov;
  let prng = Prng.create 99 in
  let same_budget =
    Faultsim.random_patterns prng ~n_inputs:12 ~count:(Array.length r.Podem.vectors)
  in
  let random_cov = Faultsim.coverage (Faultsim.run_ppsfp u same_budget) in
  check "uniform random misses" true (random_cov < 1.0)

let test_optimized_random_matches_podem () =
  (* With optimized weights the random test reaches PODEM coverage within
     its computed length. *)
  let nl = Generators.wide_and ~technology:Technology.Domino_cmos 12 in
  let u = Faultsim.universe nl in
  let report = Protest.analyze ~confidence:0.99 ~optimize:true nl in
  let v = Protest.validate ~seed:17 report in
  check "optimized random full coverage" true (v.Protest.achieved_coverage >= 0.999);
  ignore u

let test_a2_by_double_application () =
  (* The paper: "these assumptions can be fulfilled by applying the test
     set exactly two times."  Apply the *whole* exhaustive set twice to a
     fresh (unknown-state) faulty gate: the first pass establishes A1/A2,
     so every second-pass response must equal the predicted combinational
     faulty function. *)
  let cell = Stdcells.fig9 in
  let faults = Fault.enumerate cell in
  let vectors = Charge_sim.bool_vectors 5 in
  List.iter
    (fun f ->
      match Fault_map.map cell f with
      | Fault_map.Combinational predicted ->
          (* first application of the set, from a completely unknown gate *)
          let st =
            List.fold_left
              (fun st v -> fst (Charge_sim.domino_cycle ~fault:f cell st v))
              Charge_sim.domino_initial vectors
          in
          (* second application: responses must match the prediction *)
          let _ =
            List.fold_left
              (fun st v ->
                let st', out = Charge_sim.domino_cycle ~fault:f cell st v in
                let env name =
                  let rec go ns vs =
                    match (ns, vs) with
                    | n :: _, b :: _ when String.equal n name -> b
                    | _ :: ns, _ :: vs -> go ns vs
                    | _ -> invalid_arg "env"
                  in
                  go (Cell.inputs cell) v
                in
                let expected = Expr.eval env predicted in
                (match out with
                | Dynmos_sim.Logic.X -> Alcotest.fail "unexpected X after double application"
                | o ->
                    if not (Dynmos_sim.Logic.equal o (Dynmos_sim.Logic.of_bool expected)) then
                      Alcotest.fail
                        (Fmt.str "double application wrong for %s" (Fault.label cell f)));
                st')
              st vectors
          in
          ()
      | _ -> ())
    faults;
  check "A2 by double application" true true

let test_cross_technology_consistency () =
  (* The same boolnet function realized in static CMOS and dual-rail
     domino: identical good behaviour (checked in test_circuits), and the
     domino fault universe contains no sequential classes while the static
     one, at switch level, does. *)
  let nor2 = Stdcells.fig1_nor in
  let sequential_faults =
    List.filter
      (fun f ->
        match Fault_map.map nor2 f with Fault_map.Sequential _ -> true | _ -> false)
      (Fault.enumerate nor2)
  in
  check "static NOR has sequential faults" true (List.length sequential_faults > 0);
  let domino_or = Stdcells.or_gate 2 Technology.Domino_cmos in
  let any_sequential =
    List.exists
      (fun f ->
        match Fault_map.map domino_or f with Fault_map.Sequential _ -> true | _ -> false)
      (Fault.enumerate domino_or)
  in
  check "domino OR has none" false any_sequential

let test_selftest_pipeline () =
  (* PROTEST-optimized weights drive a weighted hardware generator in a
     self-test session; the signature still catches an injected hard
     fault. *)
  let nl = Generators.wide_and ~technology:Technology.Domino_cmos 8 in
  let u = Faultsim.universe nl in
  let report = Protest.analyze ~confidence:0.99 ~optimize:true nl in
  let weights =
    match report.Protest.optimization with
    | Some o -> o.Dynmos_protest.Optimize.optimized_weights
    | None -> Array.make 8 0.5
  in
  (* the hardest site: output stuck-at-0 of the root gate *)
  let root = (Compiled.gates u.Faultsim.compiled).(Netlist.n_gates nl - 1) in
  let site =
    Array.to_list u.Faultsim.sites
    |> List.filter (fun s -> s.Faultsim.gate.Netlist.id = root.Compiled.g.Netlist.id)
    |> List.hd
  in
  let o =
    Dynmos_bist.Selftest.test_fault ~seed:5 ~source:(`Weighted weights) u.Faultsim.compiled
      ~n_cycles:500 site
  in
  check "weighted self test catches hard fault" true o.Dynmos_bist.Selftest.detected

let test_charge_sim_matches_faultsim () =
  (* The charge-level simulator and the library-driven fault simulator
     agree on the faulty responses of a single-gate network, for every
     combinational fault class. *)
  let cell = Stdcells.fig9 in
  let nl = Generators.single_cell cell in
  let u = Faultsim.universe nl in
  let vectors = Charge_sim.bool_vectors 5 in
  Array.iter
    (fun site ->
      (* pick one physical member of the class and run the charge sim *)
      let f, _ = List.hd site.Faultsim.entry.Faultlib.members in
      let warm = Charge_sim.domino_warmup ~fault:f cell in
      let _, responses =
        List.fold_left
          (fun (st, acc) v ->
            let st', o = Charge_sim.domino_cycle ~fault:f cell st v in
            (st', o :: acc))
          (warm, []) vectors
      in
      let responses = List.rev responses in
      List.iter2
        (fun v o ->
          let faulty = (Compiled.eval ~override:(0, site.Faultsim.fn) u.Faultsim.compiled (Array.of_list v)).(0) in
          match o with
          | Dynmos_sim.Logic.X -> Alcotest.fail "X from charge sim"
          | o ->
              if not (Dynmos_sim.Logic.equal o (Dynmos_sim.Logic.of_bool faulty)) then
                Alcotest.fail
                  (Fmt.str "disagreement for %s" (Faultsim.site_label u site)))
        vectors responses)
    u.Faultsim.sites;
  check "charge sim = fault sim" true true

let test_scan_invalidation () =
  (* The paper's introduction: "scan path techniques fail since the state
     of the faulty circuit may change during shifting."  A two-pattern
     test for the Fig. 1 stuck-open NOR works when the patterns are
     applied back to back, but shifting the second pattern through a scan
     chain drives the gate through an intermediate state that re-resolves
     the floating node and invalidates the test. *)
  let nor = Stdcells.fig1_nor in
  let fault = Fault.Network_open 1 in
  let good v = snd (Charge_sim.static_step nor Charge_sim.static_initial v) in
  let step st v = Charge_sim.static_step ~fault nor st v in
  (* P1 = (0,0) charges Z to 1; P2 = (1,0) floats the faulty gate. *)
  let p1 = [ false; false ] and p2 = [ true; false ] in
  (* Direct (enhanced-scan / back-to-back) application: detected. *)
  let st, _ = step Charge_sim.static_initial p1 in
  let _, direct = step st p2 in
  check "direct two-pattern test detects" false
    (Dynmos_sim.Logic.equal direct (good p2));
  (* Scan application: the chain is scan_in -> B -> A, so loading (1,0)
     from (0,0) passes through (A,B) = (0,1), which discharges Z again. *)
  let st, _ = step Charge_sim.static_initial p1 in
  let st, _ = step st [ false; true ] (* intermediate shift state *) in
  let _, scanned = step st p2 in
  check "scan-shifted test invalidated" true (Dynmos_sim.Logic.equal scanned (good p2));
  (* The domino counterpart: detection is per-vector (combinational), so
     no shifting order can invalidate a test — the response to the final
     vector is state-independent (this is claim 2, already proved by
     [domino_combinational]; assert it for the OR gate used here). *)
  let domino_or = Stdcells.or_gate 2 Technology.Domino_cmos in
  check "domino detection is shift-order independent" true
    (List.for_all
       (fun f -> Charge_sim.domino_combinational ~fault:f domino_or)
       (Fault.enumerate domino_or))

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "text -> library -> PROTEST -> validation" `Quick
            test_text_to_validated_test;
          Alcotest.test_case "PODEM vs uniform random" `Quick
            test_podem_beats_uniform_on_hard_circuit;
          Alcotest.test_case "optimized random reaches full coverage" `Quick
            test_optimized_random_matches_podem;
          Alcotest.test_case "weighted self-test end to end" `Quick test_selftest_pipeline;
        ] );
      ( "model_consistency",
        [
          Alcotest.test_case "A2 by double application" `Slow test_a2_by_double_application;
          Alcotest.test_case "cross-technology" `Quick test_cross_technology_consistency;
          Alcotest.test_case "charge sim = fault sim" `Slow test_charge_sim_matches_faultsim;
          Alcotest.test_case "scan invalidation (static) vs domino" `Quick
            test_scan_invalidation;
        ] );
    ]

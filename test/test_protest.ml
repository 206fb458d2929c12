open Dynmos_util
open Dynmos_cell
open Dynmos_netlist
open Dynmos_sim
open Dynmos_faultsim
open Dynmos_protest
open Dynmos_circuits

(* Tests for the PROTEST reproduction: signal probabilities, detection
   probabilities, test length, input-probability optimization, pattern
   generation and the validating fault simulation. *)

let check = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))

let uniform n = Array.make n 0.5

(* --- Signal probabilities ----------------------------------------------- *)

let test_signal_prob_tree_exact () =
  (* On fan-out-free circuits the propagation estimator is exact. *)
  let nl = Generators.and_tree ~technology:Technology.Domino_cmos 8 in
  let c = Compiled.compile nl in
  let est = Signal_prob.propagate c ~pi_weights:(uniform 8) in
  let ex = Signal_prob.exact c ~pi_weights:(uniform 8) in
  Array.iteri (fun i p -> checkf 1e-9 (Fmt.str "net %d" i) ex.(i) p) est;
  (* The tree root: AND of 8 at p=0.5 is 2^-8. *)
  let root = Option.get (Compiled.net_index c (List.hd (Netlist.outputs nl))) in
  checkf 1e-12 "root probability" (1.0 /. 256.0) est.(root)

let test_signal_prob_weighted () =
  let nl = Generators.and_tree ~technology:Technology.Domino_cmos 4 in
  let c = Compiled.compile nl in
  let w = [| 0.9; 0.8; 0.7; 0.6 |] in
  let est = Signal_prob.propagate c ~pi_weights:w in
  let root = Option.get (Compiled.net_index c (List.hd (Netlist.outputs nl))) in
  checkf 1e-9 "weighted root" (0.9 *. 0.8 *. 0.7 *. 0.6) est.(root)

let test_signal_prob_reconvergence_error () =
  (* Reconvergent fan-out makes the estimator approximate; exact stays
     exact.  On c17 the max estimator error is small but non-zero. *)
  let nl = Generators.c17 ~style:`Static () in
  let c = Compiled.compile nl in
  let max_err, mean_err = Signal_prob.estimator_error c ~pi_weights:(uniform 5) in
  check "some error" true (max_err > 0.0);
  check "bounded" true (max_err < 0.2 && mean_err < 0.05)

let test_signal_prob_monte_carlo () =
  let nl = Generators.c17 ~style:`Domino () in
  let c = Compiled.compile nl in
  let n = Compiled.n_inputs c in
  let mc = Signal_prob.monte_carlo (Prng.create 3) c ~pi_weights:(uniform n) ~samples:20000 in
  let ex = Signal_prob.exact c ~pi_weights:(uniform n) in
  Array.iteri
    (fun i p -> check (Fmt.str "net %d close" i) true (Float.abs (p -. ex.(i)) < 0.02))
    mc

let test_weights_validation () =
  let nl = Generators.c17 ~style:`Domino () in
  let c = Compiled.compile nl in
  check "bad weight rejected" true
    (match
       Signal_prob.propagate c
         ~pi_weights:(Array.append (Array.make (Compiled.n_inputs c - 1) 0.5) [| 1.5 |])
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- Detection probabilities --------------------------------------------- *)

let test_detect_prob_single_gate () =
  let u = Faultsim.universe (Generators.fig9_network ()) in
  let ex = Detect_prob.exact u ~pi_weights:(uniform 5) in
  (* Class 9 (u stuck 0) is detected whenever u = 1: p = P(u=1) = 14/32.
     Class 10 (u stuck 1) whenever u = 0: p = 18/32. *)
  Array.iter
    (fun site ->
      let cid = site.Faultsim.entry.Dynmos_core.Faultlib.class_id in
      if cid = 9 then checkf 1e-9 "stuck0 det" (17.0 /. 32.0) ex.(site.Faultsim.sid);
      if cid = 10 then checkf 1e-9 "stuck1 det" (15.0 /. 32.0) ex.(site.Faultsim.sid))
    u.Faultsim.sites

let test_detect_prob_exact_vs_mc () =
  let u = Faultsim.universe (Generators.c17 ~style:`Domino ()) in
  let n = Compiled.n_inputs u.Faultsim.compiled in
  let ex = Detect_prob.exact u ~pi_weights:(uniform n) in
  let mc = Detect_prob.monte_carlo (Prng.create 4) u ~pi_weights:(uniform n) ~samples:20000 in
  Array.iteri
    (fun i p -> check (Fmt.str "site %d" i) true (Float.abs (p -. ex.(i)) < 0.02))
    mc

let test_detect_prob_estimate_trees () =
  (* On a fan-out-free tree the COP-style estimate matches the exact
     value. *)
  let u = Faultsim.universe (Generators.and_tree ~technology:Technology.Domino_cmos 4) in
  let ex = Detect_prob.exact u ~pi_weights:(uniform 4) in
  let est = Detect_prob.estimate u ~pi_weights:(uniform 4) in
  Array.iteri (fun i p -> checkf 1e-9 (Fmt.str "site %d" i) ex.(i) p) est

let test_observability () =
  let nl = Generators.and_tree ~technology:Technology.Domino_cmos 4 in
  let c = Compiled.compile nl in
  let _, obs = Detect_prob.observability c ~pi_weights:(uniform 4) in
  let po = Option.get (Compiled.net_index c (List.hd (Netlist.outputs nl))) in
  checkf 1e-9 "PO fully observable" 1.0 obs.(po);
  (* a leaf of an AND tree needs the 3 side inputs at 1: 2^-3 *)
  let leaf = Option.get (Compiled.net_index c "x0") in
  checkf 1e-9 "leaf observability" 0.125 obs.(leaf)

(* --- Test length ------------------------------------------------------------ *)

let test_length_formulas () =
  (* single fault, p=0.5, c=0.99: need ~7 patterns *)
  Alcotest.(check int) "single fault" 7
    (Test_length.required_length ~confidence:0.99 [| 0.5 |]);
  (* confidence at that length is >= demanded and < at length-1 *)
  check "meets confidence" true (Test_length.confidence ~n:7 [| 0.5 |] >= 0.99);
  check "tight" true (Test_length.confidence ~n:6 [| 0.5 |] < 0.99);
  (* monotone in confidence and in fault hardness *)
  check "harder fault, longer test" true
    (Test_length.required_length ~confidence:0.99 [| 0.01 |]
    > Test_length.required_length ~confidence:0.99 [| 0.5 |]);
  check "higher confidence, longer test" true
    (Test_length.required_length ~confidence:0.9999 [| 0.3 |]
    >= Test_length.required_length ~confidence:0.99 [| 0.3 |]);
  (* the closed-form worst-fault bound dominates the exact answer *)
  let probs = [| 0.5; 0.25; 0.03 |] in
  check "worst bound >= exact" true
    (Test_length.required_length_worst ~confidence:0.99 probs
    >= Test_length.required_length ~confidence:0.99 probs);
  check "undetectable raises" true
    (match Test_length.required_length ~confidence:0.9 [| 0.5; 0.0 |] with
    | _ -> false
    | exception Test_length.Undetectable -> true);
  check "bad confidence" true
    (match Test_length.required_length ~confidence:1.0 [| 0.5 |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkf 1e-9 "escape complements" 1.0
    (Test_length.escape ~n:5 [| 0.2 |] +. Test_length.confidence ~n:5 [| 0.2 |]);
  checkf 1e-9 "expected first detection" 4.0 (Test_length.expected_first_detection 0.25)

let test_length_matches_simulation () =
  (* Empirical check: N patterns detect all faults with roughly the
     demanded confidence. *)
  let u = Faultsim.universe (Generators.c17 ~style:`Domino ()) in
  let n_in = Compiled.n_inputs u.Faultsim.compiled in
  let probs = Detect_prob.exact u ~pi_weights:(uniform n_in) in
  let n = Test_length.required_length ~confidence:0.9 probs in
  let prng = Prng.create 77 in
  let trials = 60 in
  let successes = ref 0 in
  for _ = 1 to trials do
    let pats = Faultsim.random_patterns prng ~n_inputs:n_in ~count:n in
    let s = Faultsim.run_ppsfp u pats in
    if Faultsim.coverage s >= 1.0 then incr successes
  done;
  let rate = float_of_int !successes /. float_of_int trials in
  (* allow generous sampling slack around 0.9 *)
  check "empirical confidence plausible" true (rate > 0.75)

(* --- Optimization ------------------------------------------------------------- *)

let test_optimize_wide_and () =
  (* The paper's headline: optimized input probabilities shorten the test
     by orders of magnitude.  A wide AND is the canonical case: output
     s-a-0 needs the all-ones vector (2^-16 at p=0.5). *)
  let nl = Generators.wide_and ~technology:Technology.Domino_cmos 16 in
  let u = Faultsim.universe nl in
  let r = Optimize.run ~objective:Optimize.Estimated ~confidence:0.999 u in
  match (r.Optimize.initial_length, r.Optimize.optimized_length, r.Optimize.reduction) with
  | Some before, Some after, Some red ->
      check "shorter" true (after < before);
      check "orders of magnitude" true (red > 50.0)
  | _ -> Alcotest.fail "expected finite lengths"

let test_optimize_exact_small () =
  let u = Faultsim.universe (Generators.and_tree ~technology:Technology.Domino_cmos 6) in
  let r = Optimize.run ~objective:Optimize.Exact ~confidence:0.99 u in
  match (r.Optimize.initial_length, r.Optimize.optimized_length) with
  | Some before, Some after ->
      check "no worse" true (after <= before);
      (* AND tree wants high input probabilities *)
      check "weights raised" true
        (Array.for_all (fun w -> w >= 0.5) r.Optimize.optimized_weights)
  | _ -> Alcotest.fail "expected finite lengths"

let test_optimize_cost_order () =
  let u = Faultsim.universe (Generators.and_tree ~technology:Technology.Domino_cmos 4) in
  let c_bad = Optimize.cost u ~objective:Optimize.Exact ~confidence:0.99 ~pi_weights:(uniform 4) in
  let c_good =
    Optimize.cost u ~objective:Optimize.Exact ~confidence:0.99 ~pi_weights:[| 0.9; 0.9; 0.9; 0.9 |]
  in
  check "biased weights cost less on AND tree" true (c_good < c_bad)

(* --- The facade ----------------------------------------------------------------- *)

let test_analyze_and_validate () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 4 in
  let report = Protest.analyze ~confidence:0.99 nl in
  (match report.Protest.test_length with
  | Some n -> check "positive length" true (n > 0)
  | None -> Alcotest.fail "expected detectable universe");
  (* exact detection probabilities present on this small circuit *)
  check "exact present" true
    (Array.for_all (fun f -> f.Protest.exact <> None) report.Protest.faults);
  let v = Protest.validate ~seed:9 report in
  check "applied = length" true (v.Protest.applied = Option.get report.Protest.test_length);
  check "high coverage" true (v.Protest.achieved_coverage > 0.9);
  check "prediction sane" true
    (v.Protest.predicted_confidence > 0.9 && v.Protest.predicted_confidence <= 1.0)

let test_analyze_optimized_patterns () =
  let nl = Generators.wide_and ~technology:Technology.Domino_cmos 8 in
  let report = Protest.analyze ~confidence:0.99 ~optimize:true nl in
  match report.Protest.optimization with
  | None -> Alcotest.fail "expected optimization"
  | Some o ->
      let pats = Protest.patterns ~seed:2 report ~count:500 in
      (* empirical input frequency tracks the optimized weights *)
      let freq i =
        float_of_int (Array.fold_left (fun a p -> if p.(i) then a + 1 else a) 0 pats) /. 500.0
      in
      let ok = ref true in
      Array.iteri
        (fun i w -> if Float.abs (freq i -. w) > 0.1 then ok := false)
        o.Optimize.optimized_weights;
      check "patterns follow optimized weights" true !ok

let test_report_printing () =
  let nl = Generators.c17 ~style:`Domino () in
  let report = Protest.analyze ~confidence:0.99 nl in
  let s = Fmt.str "%a" Protest.pp_report report in
  check "mentions test length" true (String.length s > 0)

let () =
  Alcotest.run "protest"
    [
      ( "signal_prob",
        [
          Alcotest.test_case "exact on trees" `Quick test_signal_prob_tree_exact;
          Alcotest.test_case "weighted inputs" `Quick test_signal_prob_weighted;
          Alcotest.test_case "reconvergence error bounded" `Quick
            test_signal_prob_reconvergence_error;
          Alcotest.test_case "monte carlo agrees" `Quick test_signal_prob_monte_carlo;
          Alcotest.test_case "weight validation" `Quick test_weights_validation;
        ] );
      ( "detect_prob",
        [
          Alcotest.test_case "fig9 closed forms" `Quick test_detect_prob_single_gate;
          Alcotest.test_case "exact vs monte carlo" `Quick test_detect_prob_exact_vs_mc;
          Alcotest.test_case "estimate exact on trees" `Quick test_detect_prob_estimate_trees;
          Alcotest.test_case "observability" `Quick test_observability;
        ] );
      ( "test_length",
        [
          Alcotest.test_case "formulas" `Quick test_length_formulas;
          Alcotest.test_case "matches simulation" `Slow test_length_matches_simulation;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "wide AND orders of magnitude" `Quick test_optimize_wide_and;
          Alcotest.test_case "exact objective" `Quick test_optimize_exact_small;
          Alcotest.test_case "cost ordering" `Quick test_optimize_cost_order;
        ] );
      ( "facade",
        [
          Alcotest.test_case "analyze + validate" `Quick test_analyze_and_validate;
          Alcotest.test_case "optimized patterns" `Quick test_analyze_optimized_patterns;
          Alcotest.test_case "report printing" `Quick test_report_printing;
        ] );
    ]

(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus its extensions (see EXPERIMENTS.md, index E1..E17).

   Usage:
     dune exec bench/main.exe                    run every experiment
     dune exec bench/main.exe -- e5 e8           run selected experiments
     dune exec bench/main.exe -- e17 --tiny      E17's same-run ratio probes at CI
                                                 sizes, written to BENCH_faultsim.json *)

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
module Chaos = Dynmos_chaos.Chaos
module Json = Dynmos_json.Json
module Obs = Dynmos_obs.Obs

let pf = Format.printf

let header id title = pf "@.==== %s: %s ====@." (String.uppercase_ascii id) title

(* ---------------------------------------------------------------------- *)
(* E1 — Fig. 1: the faulty static CMOS NOR function table                  *)
(* ---------------------------------------------------------------------- *)

let e1 () =
  let nor = Stdcells.fig1_nor in
  let fault = Fault.Network_open 1 in
  pf "Static CMOS NOR, pull-down transistor of input A open.@.";
  pf "  A B | Z(t+d) good | Z(t+d) faulty@.";
  List.iter
    (fun (a, b) ->
      let good = snd (Charge_sim.static_step nor Charge_sim.static_initial [ a; b ]) in
      let f0 =
        snd
          (Charge_sim.static_step ~fault nor { Charge_sim.out = Charge_sim.Driven false } [ a; b ])
      in
      let f1 =
        snd
          (Charge_sim.static_step ~fault nor { Charge_sim.out = Charge_sim.Driven true } [ a; b ])
      in
      let faulty = if Logic.equal f0 f1 then String.make 1 (Logic.to_char f0) else "Z(t)" in
      pf "  %d %d |      %c      |     %s@." (Bool.to_int a) (Bool.to_int b) (Logic.to_char good)
        faulty)
    [ (false, false); (false, true); (true, false); (true, true) ];
  pf "  paper column: 1, 0, Z(t), 0 — sequential behaviour at A=1,B=0.@."

(* ---------------------------------------------------------------------- *)
(* E2 — Fig. 2: performance degradation by a stuck-closed pull-up          *)
(* ---------------------------------------------------------------------- *)

let e2 () =
  let inv = Stdcells.fig2_inverter in
  pf "Static CMOS inverter, T1 (pull-up) permanently closed; behaviour vs@.";
  pf "resistance ratio R(T1)/R(T2):@.";
  pf "  %8s | %-14s | %s@." "ratio" "classification" "effect";
  List.iter
    (fun ratio ->
      let electrical =
        {
          Fault_map.default_electrical with
          Fault_map.r_inverter_p = ratio;
          r_inverter_n = 1.0;
          delay_factor = Float.max 1.5 (2.0 *. ratio);
        }
      in
      match Fault_map.map ~electrical inv (Fault.Pullup_closed 1) with
      | Fault_map.Combinational f when Truth_table.equal_exprs f Expr.true_ ->
          pf "  %8.2f | %-14s | output stuck high (pull-up wins the fight)@." ratio "s1-z"
      | Fault_map.Combinational f ->
          pf "  %8.2f | %-14s | faulty function z = %s@." ratio "combinational"
            (Expr.to_string f)
      | Fault_map.Contention { resolves_to; factor; _ } ->
          pf "  %8.2f | %-14s | pull-down inverter z = %s, t_HL x%.1f@." ratio "degradation"
            (Expr.to_string resolves_to) factor
      | Fault_map.Delay { factor; _ } -> pf "  %8.2f | %-14s | x%.1f slower@." ratio "delay" factor
      | Fault_map.Sequential _ -> pf "  %8.2f | %-14s |@." ratio "sequential")
    [ 0.1; 0.2; 0.45; 1.0; 2.0; 5.0; 10.0 ];
  pf "  paper: R(T1) > R(T2) turns the gate into a pull down inverter with a@.";
  pf "  longer high-to-low delay; only a timing-aware model can test it.@."

(* ---------------------------------------------------------------------- *)
(* E3 — Section 3: the dynamic nMOS fault classes nMOS-1 .. nMOS-(2n+2)    *)
(* ---------------------------------------------------------------------- *)

let classify cell logical =
  match logical with
  | Fault_map.Combinational f ->
      if Truth_table.equal_exprs f Expr.false_ then "s0-z"
      else if Truth_table.equal_exprs f Expr.true_ then "s1-z"
      else Fmt.str "%s = %s" (Cell.output cell) (Minimize.minimize_to_string f)
  | Fault_map.Delay { observed_as = None; _ } -> "delay (possibly undetectable)"
  | Fault_map.Delay { observed_as = Some f; _ } ->
      Fmt.str "delay, seen as %s = %s at max speed" (Cell.output cell)
        (Minimize.minimize_to_string f)
  | Fault_map.Sequential _ -> "SEQUENTIAL"
  | Fault_map.Contention _ -> "contention"

let e3 () =
  let cell = Stdcells.nand 3 Technology.Dynamic_nmos in
  pf "Dynamic nMOS gate (Fig. 6), n = 3, T = a*b*c, z = !T.@.";
  pf "  %-10s %-26s %s@." "label" "fault" "logical effect";
  List.iter
    (fun f ->
      pf "  %-10s %-26s %s@."
        (Option.value ~default:"-" (Fault.paper_label cell f))
        (Fault.describe cell f)
        (classify cell (Fault_map.map cell f)))
    (Fault.enumerate cell);
  let seq =
    List.filter (fun f -> not (Charge_sim.nmos_combinational ~fault:f cell)) (Fault.enumerate cell)
  in
  pf "  charge-level check: %d of %d faults sequential (paper claims 0).@." (List.length seq)
    (List.length (Fault.enumerate cell));
  let open_class = classify cell (Fault_map.map cell Fault.Precharge_open) in
  let closed_class = classify cell (Fault_map.map cell Fault.Precharge_closed) in
  pf "  precharge open -> %s, precharge closed -> %s (same class: %b)@." open_class closed_class
    (String.equal open_class closed_class)

(* ---------------------------------------------------------------------- *)
(* E4 — Section 3: the domino CMOS fault classes CMOS-1 .. CMOS-4          *)
(* ---------------------------------------------------------------------- *)

let e4 () =
  let cell = Stdcells.fig9 in
  let dump label electrical =
    pf "  [%s devices]@." label;
    List.iter
      (fun f ->
        pf "    %-8s %-18s %s@."
          (Option.value ~default:"-" (Fault.paper_label cell f))
          (Fault.describe cell f)
          (classify cell (Fault_map.map ~electrical cell f)))
      [
        Fault.Evaluate_closed;
        Fault.Evaluate_open;
        Fault.Precharge_closed;
        Fault.Precharge_open;
        Fault.Inverter_p_open;
        Fault.Inverter_n_open;
        Fault.Inverter_p_closed;
        Fault.Inverter_n_closed;
      ]
  in
  pf "Domino CMOS gate (Fig. 4) clocking and inverter faults:@.";
  dump "strong restoring" Fault_map.default_electrical;
  dump "weak restoring" Fault_map.weak_electrical;
  let seq =
    List.filter
      (fun f -> not (Charge_sim.domino_combinational ~fault:f cell))
      (Fault.enumerate cell)
  in
  pf "  charge-level check over all %d faults: %d sequential (paper claims 0).@."
    (List.length (Fault.enumerate cell))
    (List.length seq)

(* ---------------------------------------------------------------------- *)
(* E5 — Section 5: the Fig. 9 fault-class table                            *)
(* ---------------------------------------------------------------------- *)

let e5 () =
  let lib = Faultlib.generate Stdcells.fig9 in
  Faultlib.pp_table Format.std_formatter lib;
  pf "  (paper: 10 distinguishable classes; class 3 = {b,c closed},@.";
  pf "   class 7 = {d,e open}, class 9 = {CMOS-2, CMOS-3}, class 10 = CMOS-4)@."

(* ---------------------------------------------------------------------- *)
(* E6 — PROTEST: signal probability estimation                             *)
(* ---------------------------------------------------------------------- *)

let e6 () =
  pf "Estimated (independence assumption) vs exact signal probabilities:@.";
  pf "  %-18s %8s %9s %9s@." "circuit" "nets" "max err" "mean err";
  List.iter
    (fun nl ->
      let c = Compiled.compile nl in
      let w = Array.make (Compiled.n_inputs c) 0.5 in
      let max_err, mean_err = Signal_prob.estimator_error c ~pi_weights:w in
      pf "  %-18s %8d %9.4f %9.4f@." (Netlist.name nl) (Compiled.n_nets c) max_err mean_err)
    [
      Generators.and_tree ~technology:Technology.Domino_cmos 8;
      Generators.carry_chain ~technology:Technology.Domino_cmos 6;
      Generators.c17 ~style:`Static ();
      Generators.c17 ~style:`Domino ();
      Generators.parity ~style:`Domino 5;
      Generators.ripple_adder ~style:`Domino 2;
    ];
  pf "  fan-out-free circuits are exact; reconvergence introduces the error.@."

(* ---------------------------------------------------------------------- *)
(* E7 — PROTEST: detection probabilities and necessary test length          *)
(* ---------------------------------------------------------------------- *)

let e7 () =
  pf "Necessary random-test length for a demanded confidence:@.";
  pf "  %-18s %6s %9s | %8s %8s %8s@." "circuit" "faults" "p_min" "c=0.99" "c=0.999" "c=0.9999";
  List.iter
    (fun nl ->
      let u = Faultsim.universe nl in
      let w = Array.make (Compiled.n_inputs u.Faultsim.compiled) 0.5 in
      let probs = Detect_prob.exact u ~pi_weights:w in
      let p_min = Array.fold_left Float.min 1.0 probs in
      let len c = Test_length.required_length ~confidence:c probs in
      pf "  %-18s %6d %9.5f | %8d %8d %8d@." (Netlist.name nl) (Faultsim.n_sites u) p_min
        (len 0.99) (len 0.999) (len 0.9999))
    [
      Generators.fig9_network ();
      Generators.c17 ~style:`Domino ();
      Generators.carry_chain ~technology:Technology.Domino_cmos 6;
      Generators.ripple_adder ~style:`Domino 2;
      Generators.wide_and ~technology:Technology.Domino_cmos 12;
    ]

(* ---------------------------------------------------------------------- *)
(* E8 — PROTEST: optimized input signal probabilities                       *)
(* ---------------------------------------------------------------------- *)

let e8 () =
  pf "Test length at uniform p=0.5 vs PROTEST-optimized probabilities@.";
  pf "(confidence 0.999):@.";
  pf "  %-18s %10s %10s %10s@." "circuit" "uniform" "optimized" "reduction";
  List.iter
    (fun (nl, objective) ->
      let u = Faultsim.universe nl in
      let r = Optimize.run ~objective ~confidence:0.999 u in
      match (r.Optimize.initial_length, r.Optimize.optimized_length) with
      | Some a, Some b ->
          pf "  %-18s %10d %10d %9.0fx@." (Netlist.name nl) a b
            (float_of_int a /. float_of_int (max 1 b))
      | _ -> pf "  %-18s (undetectable fault)@." (Netlist.name nl))
    [
      (Generators.wide_and ~technology:Technology.Domino_cmos 8, Optimize.Exact);
      (Generators.wide_and ~technology:Technology.Domino_cmos 12, Optimize.Exact);
      (Generators.wide_and ~technology:Technology.Domino_cmos 16, Optimize.Estimated);
      (Generators.carry_chain ~technology:Technology.Domino_cmos 8, Optimize.Estimated);
    ];
  pf "  paper: 'the necessary test length can be reduced by orders of@.";
  pf "  magnitudes' — the wide-AND family shows the >= 100x shape.@."

(* ---------------------------------------------------------------------- *)
(* E9 — Assumptions A1/A2                                                   *)
(* ---------------------------------------------------------------------- *)

let e9 () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 6 in
  let c = Compiled.compile nl in
  let n_in = Compiled.n_inputs c in
  let n_nets = Compiled.n_nets c in
  pf "A2 requires every node charged and discharged at least once.@.";
  pf "Probability (100 trials) that k uniform random patterns achieve it@.";
  pf "on the %d-net domino carry chain:@." n_nets;
  let prng = Prng.create 2718 in
  List.iter
    (fun k ->
      let success = ref 0 in
      for _ = 1 to 100 do
        let seen1 = Array.make n_nets false in
        let seen0 = Array.make n_nets false in
        for _ = 1 to k do
          let pi = Array.init n_in (fun _ -> Prng.bool prng) in
          let nets = Compiled.eval_nets c pi in
          Array.iteri (fun i v -> if v then seen1.(i) <- true else seen0.(i) <- true) nets
        done;
        let all = ref true in
        for i = 0 to n_nets - 1 do
          if not (seen1.(i) && seen0.(i)) then all := false
        done;
        if !all then incr success
      done;
      pf "  k = %4d : %3d%%@." k !success)
    [ 2; 4; 8; 16; 32; 64 ];
  let u = Faultsim.universe nl in
  let r = Podem.generate_set u in
  let doubled = Podem.schedule_double r.Podem.vectors in
  let seen1 = Array.make n_nets false and seen0 = Array.make n_nets false in
  Array.iter
    (fun pi ->
      let nets = Compiled.eval_nets c pi in
      Array.iteri (fun i v -> if v then seen1.(i) <- true else seen0.(i) <- true) nets)
    doubled;
  let all = Array.for_all2 (fun a b -> a && b) seen1 seen0 in
  pf "  PODEM set (%d vectors) applied twice satisfies A2: %b@."
    (Array.length r.Podem.vectors) all

(* ---------------------------------------------------------------------- *)
(* E10 — random vs deterministic test ("as efficient as ATPG")              *)
(* ---------------------------------------------------------------------- *)

let e10 () =
  let nl = Generators.wide_and ~technology:Technology.Domino_cmos 12 in
  let u = Faultsim.universe nl in
  let n_in = Compiled.n_inputs u.Faultsim.compiled in
  let report = Protest.analyze ~confidence:0.999 ~optimize:true nl in
  let opt_weights =
    match report.Protest.optimization with
    | Some o -> o.Optimize.optimized_weights
    | None -> Array.make n_in 0.5
  in
  let podem = Podem.generate_set u in
  let budgets = [ 8; 32; 128; 512; 2048; 8192 ] in
  pf "Fault coverage vs pattern count on %s (%d sites):@." (Netlist.name nl)
    (Faultsim.n_sites u);
  pf "  %8s | %14s %16s %8s@." "patterns" "uniform random" "optimized random" "PODEM";
  let prng_u = Prng.create 5 in
  let prng_o = Prng.create 5 in
  let uniform = Faultsim.random_patterns prng_u ~n_inputs:n_in ~count:8192 in
  let optimized =
    Faultsim.random_patterns ~weights:opt_weights prng_o ~n_inputs:n_in ~count:8192
  in
  List.iter
    (fun k ->
      let cov pats n = Faultsim.coverage (Faultsim.run_ppsfp u (Array.sub pats 0 n)) in
      let podem_cov =
        let n = min k (Array.length podem.Podem.vectors) in
        Faultsim.coverage (Faultsim.run_ppsfp u (Array.sub podem.Podem.vectors 0 n))
      in
      pf "  %8d | %13.1f%% %15.1f%% %7.1f%%@." k
        (100.0 *. cov uniform k)
        (100.0 *. cov optimized k)
        (100.0 *. podem_cov))
    budgets;
  pf "  PODEM set size: %d vectors.  The deterministic set is far shorter, but@."
    (Array.length podem.Podem.vectors);
  pf "  optimized random reaches full coverage orders of magnitude before@.";
  pf "  uniform random — and needs no search, only the weighted generator.@."

(* ---------------------------------------------------------------------- *)
(* E11 — fault library generation speed                                     *)
(* ---------------------------------------------------------------------- *)

let library_cells =
  [
    Stdcells.and_gate 2 Technology.Domino_cmos;
    Stdcells.or_gate 3 Technology.Domino_cmos;
    Stdcells.fig9;
    Stdcells.ao ~groups:[ 2; 2; 2 ] Technology.Domino_cmos;
    Stdcells.ao ~groups:[ 3; 3; 2 ] Technology.Domino_cmos;
    Stdcells.oa ~groups:[ 3; 3; 3; 3 ] Technology.Domino_cmos;
  ]

let e11 () =
  pf "Fault library generation ('a few seconds for a normal sized gate,@.";
  pf "less than 12 transistors of the switching net' on 1986 hardware):@.";
  pf "  %-14s %11s %7s %7s %12s@." "cell" "transistors" "faults" "classes" "time";
  List.iter
    (fun cell ->
      (* Wall clock, like every other timing in this harness (Sys.time is
         CPU time and disagrees once domains are involved). *)
      let t0 = Unix.gettimeofday () in
      let reps = 50 in
      let lib = ref (Faultlib.generate cell) in
      for _ = 2 to reps do
        lib := Faultlib.generate cell
      done;
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
      pf "  %-14s %11d %7d %7d %9.3f ms@." (Cell.name cell) (Cell.n_transistors cell)
        !lib.Faultlib.n_faults (Faultlib.n_classes !lib) (1000.0 *. dt))
    library_cells

(* ---------------------------------------------------------------------- *)
(* E12 — Fig. 5: no races and spikes in domino networks                     *)
(* ---------------------------------------------------------------------- *)

let e12 () =
  pf "Transition counting, same function in both styles, 64 input changes:@.";
  pf "  %-10s | %13s %13s | %13s %13s@." "function" "static trans" "static glitch"
    "domino trans" "domino glitch";
  List.iter
    (fun (name, bn) ->
      let n = Boolnet.n_inputs bn in
      let cs = Compiled.compile (Boolnet.to_static bn) in
      let sim = Event_sim.create cs in
      Event_sim.settle sim (Array.make n false);
      let st = ref 0 and sg = ref 0 in
      for row = 0 to 63 do
        let pi = Array.init n (fun i -> ((row * 37) lsr i) land 1 = 1) in
        let tr, _ = Event_sim.apply sim pi in
        st := !st + Event_sim.total_gate_transitions sim tr;
        sg := !sg + Event_sim.glitch_count tr
      done;
      let cd = Compiled.compile (Boolnet.to_domino_dual_rail bn) in
      let dt = ref 0 and dg = ref 0 in
      for row = 0 to 63 do
        let pi = Array.init n (fun i -> ((row * 37) lsr i) land 1 = 1) in
        let tr, _ = Event_sim.domino_evaluate cd (Boolnet.dual_rail_vector bn pi) in
        Array.iteri
          (fun i t ->
            if i >= Compiled.n_inputs cd then begin
              dt := !dt + t;
              if t > 1 then incr dg
            end)
          tr
      done;
      pf "  %-10s | %13d %13d | %13d %13d@." name !st !sg !dt !dg)
    [
      ("parity6", Generators.parity_boolnet 6);
      ("adder2", Generators.ripple_adder_boolnet 2);
      ("mux2", Generators.mux_tree_boolnet 2);
      ("c17", Generators.c17_boolnet ());
    ];
  pf "  domino glitch count is structurally zero: monotone evaluation@.";
  pf "  ('races and spikes cannot occur', Fig. 5).@."

(* ---------------------------------------------------------------------- *)
(* E13 — Section 4(b): leakage measurement vs at-speed self test            *)
(* ---------------------------------------------------------------------- *)

let e13 () =
  pf "One bridging fault (stuck-closed precharge) somewhere on the die.@.";
  pf "IDDQ measures the *whole* chip; the BILBO partition tests the faulty@.";
  pf "8-cell block at its own speed regardless of chip size:@.";
  pf "  %11s | %10s %12s | %s@." "transistors" "IDDQ rate" "false alarms" "block self test";
  let prng = Prng.create 31 in
  (* The faulty block is the same in every chip size: an 8-cell carry
     chain tested at its own clock. *)
  let block = Compiled.compile (Generators.carry_chain ~technology:Technology.Domino_cmos 8) in
  let delays = Timing.nominal_delays block in
  let propagate =
    Array.of_list
      (List.map
         (fun nm -> nm.[0] = 'c' || nm.[0] = 'p')
         (Netlist.inputs (Compiled.netlist block)))
  in
  let period = Timing.critical_path block delays propagate in
  let bist =
    Dynmos_bist.Selftest.test_delay_fault ~seed:3 block ~n_cycles:400 ~gate_id:0 ~factor:4.0
      ~period
  in
  List.iter
    (fun n ->
      let nl = Generators.carry_chain ~technology:Technology.Domino_cmos n in
      let c = Compiled.compile nl in
      let pi = Array.make (Compiled.n_inputs c) true in
      let rate = Power.detection_rate prng c ~faulty_gate:(Some 0) pi in
      let fp = Power.detection_rate prng c ~faulty_gate:None pi in
      pf "  %11d | %9.0f%% %11.1f%% | detected %b@." (Netlist.n_transistors nl)
        (100.0 *. rate) (100.0 *. fp) bist.Dynmos_bist.Selftest.detected)
    [ 8; 32; 128; 512; 2048 ];
  pf "  paper: 'it is hard to prove whether one faulty conducting path within@.";
  pf "  a large scaled integrated circuit leads to a significant and computable@.";
  pf "  rise of the power dissipation' — the IDDQ rate collapses with die size@.";
  pf "  while the at-speed block self test is size-independent.@."

(* ---------------------------------------------------------------------- *)
(* E14 — random tests satisfy A1/A2 "per se"                                *)
(* ---------------------------------------------------------------------- *)

let e14 () =
  let nl = Generators.c17 ~style:`Domino () in
  let u = Faultsim.universe nl in
  let c = u.Faultsim.compiled in
  let n_in = Compiled.n_inputs c in
  let n_nets = Compiled.n_nets c in
  let prng = Prng.create 99 in
  let trials = 200 in
  let total = ref 0 in
  for _ = 1 to trials do
    let seen1 = Array.make n_nets false and seen0 = Array.make n_nets false in
    let k = ref 0 in
    let done_ = ref false in
    while not !done_ do
      incr k;
      let pi = Array.init n_in (fun _ -> Prng.bool prng) in
      let nets = Compiled.eval_nets c pi in
      Array.iteri (fun i v -> if v then seen1.(i) <- true else seen0.(i) <- true) nets;
      done_ := Array.for_all2 (fun a b -> a && b) seen1 seen0
    done;
    total := !total + !k
  done;
  let mean_a2 = float_of_int !total /. float_of_int trials in
  let probs = Detect_prob.exact u ~pi_weights:(Array.make n_in 0.5) in
  let mean_detect =
    Array.fold_left (fun acc p -> acc +. Test_length.expected_first_detection p) 0.0 probs
    /. float_of_int (Array.length probs)
  in
  let slowest =
    Array.fold_left
      (fun acc p -> Float.max acc (Test_length.expected_first_detection p))
      0.0 probs
  in
  pf "Mean patterns until A2 holds (every node charged+discharged): %.1f@." mean_a2;
  pf "Mean expected first detection over faults: %.1f patterns@." mean_detect;
  pf "Slowest fault's expected first detection: %.1f patterns@." slowest;
  pf "  -> by the time any fault is expected to be caught, A1/A2 already@.";
  pf "  hold: 'random tests satisfy the assumptions A1 and A2 per se'.@."

(* ---------------------------------------------------------------------- *)
(* E15 (extension) — the cost of testing static CMOS: two-pattern tests    *)
(* ---------------------------------------------------------------------- *)

let e15 () =
  pf "Test applications per cell for the same switching function realized@.";
  pf "in static CMOS (stuck-opens need ordered two-pattern tests) and in@.";
  pf "domino CMOS (every fault class needs one vector):@.";
  pf "  %-10s | %10s %9s | %9s %9s@." "function" "seq faults" "pairs" "static" "domino";
  List.iter
    (fun (name, static_cell, dynamic_cell) ->
      let cmp = Two_pattern.compare_cells ~static_cell ~dynamic_cell in
      pf "  %-10s | %10d %9d | %9d %9d@." name cmp.Two_pattern.sequential_faults
        cmp.Two_pattern.two_pattern_tests cmp.Two_pattern.static_applications
        cmp.Two_pattern.dynamic_applications)
    [
      ("nor2", Stdcells.nor 2 Technology.Static_cmos, Stdcells.or_gate 2 Technology.Domino_cmos);
      ("nand3", Stdcells.nand 3 Technology.Static_cmos, Stdcells.and_gate 3 Technology.Domino_cmos);
      ( "aoi22",
        Stdcells.ao ~groups:[ 2; 2 ] Technology.Static_cmos,
        Stdcells.ao ~groups:[ 2; 2 ] Technology.Domino_cmos );
      ( "oai33",
        Stdcells.oa ~groups:[ 3; 3 ] Technology.Static_cmos,
        Stdcells.oa ~groups:[ 3; 3 ] Technology.Domino_cmos );
    ];
  pf "  ('static' counts one vector per combinational class plus an ordered@.";
  pf "  pair per stuck-open; pairs are additionally invalidated by scan@.";
  pf "  shifting, so they must be delivered back to back.)@."

(* ---------------------------------------------------------------------- *)
(* E16 (extension) — diagnosis: the classes are distinguishable            *)
(* ---------------------------------------------------------------------- *)

let e16 () =
  let u = Faultsim.universe (Generators.fig9_network ()) in
  pf "The Section-5 classes as a diagnosis dictionary (fig9):@.";
  pf "  pairwise distinguishable: %b@." (Diagnosis.pairwise_distinguishable u);
  let pats, groups = Diagnosis.diagnosing_patterns u in
  pf "  adaptive diagnosing set: %d patterns fully separate %d classes@."
    (Array.length pats) (Faultsim.n_sites u);
  pf "  final ambiguity groups: %d (all singletons: %b)@." (List.length groups)
    (List.for_all (fun g -> List.length g = 1) groups);
  Array.iteri
    (fun i p ->
      pf "    pattern %d: %s@." (i + 1)
        (String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list p))))
    pats;
  (* a worked diagnosis *)
  let dict = Diagnosis.dictionary u pats in
  let site = u.Faultsim.sites.(2) in
  (match Diagnosis.diagnose_site dict site with
  | [ s ] ->
      pf "  injected %s -> diagnosed %s@."
        (Faultsim.site_label u site)
        (Faultsim.site_label u s)
  | l -> pf "  diagnosis ambiguous (%d candidates)@." (List.length l));
  pf "  (the paper's 'distinguishable fault classes', operationalized)@."

(* ---------------------------------------------------------------------- *)
(* E17 (extension) — same-run ratio probes of the fault-simulation engines *)
(* ---------------------------------------------------------------------- *)

(* The figures CI gates on, each a ratio measured within one run so the
   host's speed cancels out: ppsfp's wall-clock speedup over the serial
   reference, the cost of an inert chaos registry, of checkpointing and
   of journal+checkpoint durability, and the gate evaluations
   event-driven propagation saves.  perfbench's campaign-rand10k times
   the engines end to end.  Drop is off, so every run does equal work. *)

let tiny_mode = ref false
(* --tiny: CI smoke — fewer patterns and no rand1k, same code paths. *)

let reps = 5

(* The one timer: a warmup of each side, then [reps] back-to-back pairs,
   so host drift and GC bursts hit both sides of a pair alike.  Returns
   each side's median wall time and the median per-pair ratio [b / a]. *)
let paired a b =
  ignore (Sys.opaque_identity (a ()));
  ignore (Sys.opaque_identity (b ()));
  let time f = let t0 = Obs.now () in ignore (Sys.opaque_identity (f ())); Obs.now () -. t0 in
  let pairs = Array.init reps (fun _ -> let ta = time a in (ta, time b)) in
  let median f = let v = Array.map f pairs in Array.sort Float.compare v; v.(reps / 2) in
  (median fst, median snd, median (fun (ta, tb) -> tb /. Float.max 1e-9 ta))

let workload name count =
  let nl = match Catalog.find name with Ok nl -> nl | Error m -> failwith m in
  let n_inputs = List.length (Netlist.inputs nl) in
  (nl, Faultsim.universe nl, Faultsim.random_patterns (Prng.create 17) ~n_inputs ~count)

let serial u pats () = Faultsim.run_serial ~drop:false u pats
let seconds t = Json.(Obj [ ("seconds_median", Float t) ])
let pct ratio = 100.0 *. (ratio -. 1.0)

let ppsfp_probe name count () =
  let _, u, pats = workload name count in
  let t_ppsfp, t_serial, speedup =
    paired (fun () -> Faultsim.run_ppsfp ~drop:false u pats) (serial u pats)
  in
  Json.(
    Obj
      [ ("name", String name); ("patterns", Int count); ("sites", Int (Faultsim.n_sites u));
        ("serial", seconds t_serial); ("ppsfp", seconds t_ppsfp);
        ("speedup_wall_vs_serial", Float speedup) ])

(* Gate evaluations done, from each engine's run counts, against
   evals x gates: what whole-circuit sweeps of the same kernel
   invocations would cost. *)
let gate_work_probe count () =
  let nl, u, pats = workload "rand60" count in
  let work run =
    let c = ref None in
    ignore (Sys.opaque_identity (run (fun counts -> c := Some counts)));
    let c = Option.get !c in
    let full = c.Campaign.evals * Netlist.n_gates nl in
    Json.(Obj [ ("gate_evals", Int c.Campaign.gate_evals); ("evals_x_gates", Int full) ])
  in
  Json.(
    Obj
      [ ("patterns", Int count);
        ("serial", work (fun on_counts -> Faultsim.run_serial ~drop:false ~on_counts u pats));
        ("ppsfp", work (fun on_counts -> Faultsim.run_ppsfp ~drop:false ~on_counts u pats)) ])

(* A registry armed at a point the engines never tap.  [overhead_pct],
   the end-to-end pair ratio, is informational: its noise (about 5 %)
   dwarfs the figure.  [derived_overhead_pct], gated under 1 % by CI,
   times the tap itself in a tight loop per registry and scales the
   per-tap delta by the sweep's taps (one Exec_job per site and pattern)
   over the sweep's wall time. *)
let chaos_probe count () =
  let _, u, pats = workload "rand60" count in
  let spec = "cache.insert=fail_prob:0,seed=1" in
  let inert = match Chaos.of_spec spec with Ok c -> c | Error e -> failwith e in
  let t_off, t_armed, ratio =
    paired (serial u pats) (fun () -> Faultsim.run_serial ~drop:false ~chaos:inert u pats)
  in
  let loops = 20_000_000 in
  let taps c () = for _ = 1 to loops do Chaos.tap c Chaos.Exec_job done in
  let loop_off, loop_armed, _ = paired (taps Chaos.disabled) (taps inert) in
  let ns loop = 1e9 *. loop /. float_of_int loops in
  let per_tap = (loop_armed -. loop_off) /. float_of_int loops in
  let derived = 100.0 *. per_tap *. float_of_int (Faultsim.n_sites u * count) /. t_off in
  Json.(
    Obj
      [ ("spec", String spec); ("patterns", Int count); ("disabled_s", Float t_off);
        ("armed_inert_s", Float t_armed); ("overhead_pct", Float (pct ratio));
        ("tap_ns_disabled", Float (ns loop_off)); ("tap_ns_armed", Float (ns loop_armed));
        ("derived_overhead_pct", Float derived) ])

(* The robustness tax on the serial sweep: a checkpoint controller at
   the default interval (a write every 1000 patterns and one at return),
   with [~journal] also the journal admit/done pair of a durable serve
   job, on a campaign long enough to amortize the file writes. *)
let durable_probe ~journal count () =
  let module Journal = Dynmos_server.Journal in
  let _, u, pats = workload "rand60" count in
  let base = Filename.temp_file "dynmos_bench" "" in
  let j = if journal then Some (Journal.open_ (base ^ ".journal")) else None in
  let envelope = Json.(to_string (Obj [ ("circuit", String "rand60"); ("patterns", Int count) ])) in
  let durable () =
    let jid = Option.map (fun j -> (j, Journal.append_admit j ~envelope)) j in
    let ctl = Faultsim.checkpoint_ctl ~path:(base ^ ".ckpt") ~interval:1000 u pats in
    let s = Faultsim.run_serial ~drop:false ~checkpoint:ctl u pats in
    Option.iter (fun (j, jid) -> Journal.append_done j ~jid ~status:"ok") jid;
    s
  in
  let t_plain, t_durable, ratio = paired (serial u pats) durable in
  Option.iter Journal.close j;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ base; base ^ ".ckpt"; base ^ ".ckpt.bak"; base ^ ".journal" ];
  Json.(
    Obj
      [ ("interval", Int 1000); ("patterns", Int count); ("without", seconds t_plain);
        ("with", seconds t_durable); ("overhead_pct", Float (pct ratio)) ])

(* A probe's summary line: its object's leaves as path=value. *)
let rec leaves path = function
  | Json.Obj fields ->
      List.concat_map (fun (k, v) -> leaves (if path = "" then k else path ^ "." ^ k) v) fields
  | Json.Float f -> [ Fmt.str "%s=%.4g" path f ]
  | v -> [ path ^ "=" ^ Json.to_string v ]

let e17 () =
  let tiny = !tiny_mode in
  let long = if tiny then 512 else 4096 in
  let probes =
    [ ("ppsfp", ppsfp_probe "rand60" 256) ]
    @ (if tiny then [] else [ ("ppsfp", ppsfp_probe "rand1k" 256) ])
    @ [ ("gate_work", gate_work_probe (if tiny then 32 else 128));
        ("chaos", chaos_probe (if tiny then 2048 else 4096));
        ("checkpoint", durable_probe ~journal:false long);
        ("durability", durable_probe ~journal:true long) ]
  in
  pf "Same-run ratio probes (drop off; one warmup, then the median of %d paired reps).@." reps;
  let results =
    List.map
      (fun (kind, probe) ->
        let obj = probe () in
        pf "  %-10s %s@." kind (String.concat " " (leaves "" obj));
        (kind, obj))
      probes
  in
  let all kind = List.filter_map (fun (k, o) -> if k = kind then Some o else None) results in
  let one kind = List.hd (all kind) in
  let artifact =
    Json.(
      Obj
        [ ( "env",
            Obj
              [ ("recommended_domains", Int (Domain.recommended_domain_count ()));
                ("ocaml_version", String Sys.ocaml_version); ("word_size", Int Sys.word_size);
                ("os_type", String Sys.os_type); ("word_bits", Int Faultsim.word_bits) ] );
          ("timing", Obj [ ("warmup", Int 1); ("reps", Int reps); ("statistic", String "median") ]);
          ( "circuits",
            List
              [ Obj
                  [ ("name", String "rand60"); ("gate_work", one "gate_work");
                    ("chaos", one "chaos"); ("checkpoint", one "checkpoint") ] ] );
          ("ppsfp", Obj [ ("drop", Bool false); ("circuits", List (all "ppsfp")) ]);
          ("durability", one "durability") ])
  in
  let oc = open_out "BENCH_faultsim.json" in
  output_string oc (Json.to_string artifact ^ "\n");
  close_out oc;
  pf "  wrote BENCH_faultsim.json@."

(* ---------------------------------------------------------------------- *)

let experiments =
  [
    ("e1", "Fig. 1 - faulty static CMOS NOR function table", e1);
    ("e2", "Fig. 2 - performance degradation by a faulty transistor", e2);
    ("e3", "Section 3 - dynamic nMOS fault classes", e3);
    ("e4", "Section 3 - domino CMOS fault classes CMOS-1..4", e4);
    ("e5", "Section 5 - the Fig. 9 fault-class table", e5);
    ("e6", "PROTEST - signal probability estimation", e6);
    ("e7", "PROTEST - detection probabilities and test length", e7);
    ("e8", "PROTEST - optimized input signal probabilities", e8);
    ("e9", "Assumptions A1/A2", e9);
    ("e10", "Random vs deterministic test", e10);
    ("e11", "Fault library generation speed", e11);
    ("e12", "Fig. 5 - no races and spikes in domino", e12);
    ("e13", "Section 4(b) - leakage vs at-speed self test", e13);
    ("e14", "Random tests satisfy A1/A2 per se", e14);
    ("e15", "Extension - two-pattern cost of static CMOS vs domino", e15);
    ("e16", "Extension - the fault classes as a diagnosis dictionary", e16);
    ("e17", "Extension - same-run ratio probes of the fault-simulation engines", e17);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  tiny_mode := List.mem "--tiny" args;
  let selected = List.filter (fun a -> String.length a < 2 || a.[0] <> '-') args in
  let to_run =
    if selected = [] then experiments
    else List.filter (fun (id, _, _) -> List.mem id selected) experiments
  in
  if to_run = [] then begin
    pf "unknown experiment(s); available: %s@."
      (String.concat " " (List.map (fun (id, _, _) -> id) experiments));
    exit 1
  end;
  List.iter
    (fun (id, title, run) ->
      header id title;
      run ())
    to_run

open Dynmos_expr
open Dynmos_cell
open Dynmos_core
open Dynmos_netlist
open Dynmos_sim
open Dynmos_circuits

(* Tests for the simulation layer: compiled evaluation, the charge-level
   gate simulators (Fig. 1 and the combinationality theorem), event-driven
   glitch counting (Fig. 5), timing (Fig. 2 / CMOS-3b) and the power
   model. *)

let check = Alcotest.(check bool)

let e = Parse.expr

(* --- Compiled evaluation -------------------------------------------------- *)

let test_compiled_vs_reference () =
  let nl = Generators.c17 ~style:`Static () in
  let c = Compiled.compile nl in
  let n = Compiled.n_inputs c in
  for row = 0 to (1 lsl n) - 1 do
    let pi = Array.init n (fun i -> (row lsr i) land 1 = 1) in
    if Compiled.eval c pi <> Compiled.eval_reference c pi then
      Alcotest.fail (Fmt.str "mismatch at row %d" row)
  done;
  check "c17 ok" true true

let test_eval_words_packing () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 4 in
  let c = Compiled.compile nl in
  let n = Compiled.n_inputs c in
  (* Pack two complementary patterns into bits 0 and 1 of each PI word. *)
  let p0 = Array.make n false in
  let p1 = Array.make n true in
  let words = Array.init n (fun i -> (if p0.(i) then 1 else 0) lor if p1.(i) then 2 else 0) in
  let out_words = Compiled.outputs_of_nets c (Compiled.eval_words c words) in
  let o0 = Compiled.eval c p0 and o1 = Compiled.eval c p1 in
  Array.iteri
    (fun k w ->
      check "bit0 matches" true (w land 1 = if o0.(k) then 1 else 0);
      check "bit1 matches" true ((w lsr 1) land 1 = if o1.(k) then 1 else 0))
    out_words

let test_override () =
  let nl = Generators.fig9_network () in
  let c = Compiled.compile nl in
  let stuck0 = Compiled.fn_of_table (Truth_table.of_expr ~vars:[| "a"; "b"; "c"; "d"; "e" |] (e "0")) in
  let gate = (Compiled.gates c).(0) in
  let pi = [| true; true; false; false; false |] in
  check "good is 1" true (Compiled.eval c pi).(0);
  check "faulty is 0" false (Compiled.eval ~override:(gate.Compiled.g.Netlist.id, stuck0) c pi).(0)

(* Cone-restricted faulty evaluation: for every gate and a batch of
   packed patterns, eval_cone_into must (a) return the exact OR over all
   POs of faulty lxor good that whole-circuit injection computes, and
   (b) leave the scratch baseline bit-identical afterwards. *)
let test_eval_cone_into () =
  let nl =
    Generators.random_monotone ~seed:9 ~n_inputs:6 ~n_gates:20
      ~technology:Technology.Domino_cmos ()
  in
  let c = Compiled.compile nl in
  let n = Compiled.n_inputs c in
  let po = Compiled.po_indices c in
  let stuck0 =
    Compiled.fn_of_table
      (Truth_table.of_expr ~vars:[| "x0"; "x1" |] (e "0"))
  in
  let prng = Dynmos_util.Prng.create 31 in
  let words = Array.init n (fun _ -> Dynmos_util.Prng.bits62 prng) in
  let scratch = Compiled.make_scratch c in
  Compiled.eval_words_into c ~scratch words;
  let baseline = Array.copy scratch in
  let buf = Compiled.make_cone_buffer c in
  for gid = 0 to Compiled.n_gates c - 1 do
    let tally = ref 0 in
    let diff = Compiled.eval_cone_into ~tally c ~override:(gid, stuck0) ~scratch ~buf in
    check (Fmt.str "gate %d: scratch restored" gid) true (scratch = baseline);
    let fscratch = Compiled.make_scratch c in
    Compiled.eval_words_into ~override:(gid, stuck0) c ~scratch:fscratch words;
    let expected = Array.fold_left (fun acc p -> acc lor (baseline.(p) lxor fscratch.(p))) 0 po in
    check (Fmt.str "gate %d: diff matches whole-circuit injection" gid) true (diff = expected);
    check (Fmt.str "gate %d: tally bounded by cone" gid) true
      (!tally >= 1 && !tally <= Array.length (Compiled.fanout_cone c gid))
  done

let test_output_expr () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 3 in
  let c = Compiled.compile nl in
  let po = List.hd (Netlist.outputs (Compiled.netlist c)) in
  let cone = Compiled.output_expr c po in
  (* c3 = g2 + p2*(g1 + p1*(g0 + p0*c0)) *)
  check "cone formula" true
    (Truth_table.equal_exprs cone (e "g2+p2*(g1+p1*(g0+p0*c0))"))

(* --- Charge-level: Fig. 1 -------------------------------------------------- *)

let test_fig1_table () =
  (* The NOR function table of Fig. 1: fault-free Z vs faulty Z with the
     A pull-down open.  Faulty column: 1, 0, Z(t), 0. *)
  let nor = Stdcells.fig1_nor in
  let fault = Fault.Network_open 1 in
  let vectors = [ [ false; false ]; [ false; true ]; [ true; false ]; [ true; true ] ] in
  let good =
    List.map (fun v -> snd (Charge_sim.static_step nor Charge_sim.static_initial v)) vectors
  in
  check "good NOR column" true
    (List.for_all2 Logic.equal good [ Logic.One; Logic.Zero; Logic.Zero; Logic.Zero ]);
  (* Faulty, starting from stored 1 and stored 0: rows 00,01,11 are solid,
     row 10 shows the memory. *)
  let faulty_from stored v =
    snd (Charge_sim.static_step ~fault nor { Charge_sim.out = Charge_sim.Driven stored } v)
  in
  check "00 -> 1" true (Logic.equal (faulty_from false [ false; false ]) Logic.One);
  check "01 -> 0" true (Logic.equal (faulty_from true [ false; true ]) Logic.Zero);
  check "11 -> 0" true (Logic.equal (faulty_from true [ true; true ]) Logic.Zero);
  check "10 -> Z(t)=1" true (Logic.equal (faulty_from true [ true; false ]) Logic.One);
  check "10 -> Z(t)=0" true (Logic.equal (faulty_from false [ true; false ]) Logic.Zero)

let test_static_contention_is_x () =
  (* Pull-up stuck closed on an inverter with symmetric strengths: X at
     a=1. *)
  let inv = Stdcells.fig2_inverter in
  let _, out =
    Charge_sim.static_step ~fault:(Fault.Pullup_closed 1) inv Charge_sim.static_initial [ true ]
  in
  check "contention X" true (Logic.equal out Logic.X)

(* --- Charge-level: the combinationality theorem ----------------------------- *)

let cells_under_test =
  [
    Stdcells.fig9;
    Stdcells.and_gate 2 Technology.Domino_cmos;
    Stdcells.or_gate 3 Technology.Domino_cmos;
    Stdcells.ao ~groups:[ 2; 2 ] Technology.Domino_cmos;
    Stdcells.oa ~groups:[ 1; 2 ] Technology.Domino_cmos;
    Stdcells.mux2_dual_rail Technology.Domino_cmos;
  ]

let nmos_cells_under_test =
  [
    Stdcells.nand 2 Technology.Dynamic_nmos;
    Stdcells.nor 3 Technology.Dynamic_nmos;
    Stdcells.ao ~groups:[ 2; 1 ] Technology.Dynamic_nmos;
  ]

let test_domino_always_combinational () =
  List.iter
    (fun cell ->
      check (Fmt.str "%s fault-free" (Cell.name cell)) true
        (Charge_sim.domino_combinational cell);
      List.iter
        (fun f ->
          check
            (Fmt.str "%s / %s" (Cell.name cell) (Fault.label cell f))
            true
            (Charge_sim.domino_combinational ~fault:f cell))
        (Fault.enumerate cell))
    cells_under_test

let test_nmos_always_combinational () =
  List.iter
    (fun cell ->
      List.iter
        (fun f ->
          check
            (Fmt.str "%s / %s" (Cell.name cell) (Fault.label cell f))
            true
            (Charge_sim.nmos_combinational ~fault:f cell))
        (Fault.enumerate cell))
    nmos_cells_under_test

let test_static_is_sequential () =
  (* The negative control: stuck-open static gates are sequential. *)
  let nor = Stdcells.fig1_nor in
  check "fault-free not sequential" false (Charge_sim.static_sequential nor);
  check "stuck-open sequential" true
    (Charge_sim.static_sequential ~fault:(Fault.Network_open 1) nor);
  check "pull-up open sequential" true
    (Charge_sim.static_sequential ~fault:(Fault.Pullup_open 2) nor)

(* The observed faulty function equals Fault_map's prediction, for every
   fault of every cell whose mapping is combinational. *)
let observed_matches_map cell =
  List.for_all
    (fun f ->
      match Fault_map.map cell f with
      | Fault_map.Combinational predicted ->
          let obs = Charge_sim.observed_function ~fault:f cell in
          let inputs = Cell.inputs cell in
          List.for_all
            (fun (v, out) ->
              let env name =
                let rec go ns vs =
                  match (ns, vs) with
                  | n :: _, b :: _ when String.equal n name -> b
                  | _ :: ns, _ :: vs -> go ns vs
                  | _ -> invalid_arg "env"
                in
                go inputs v
              in
              match out with
              | Logic.X -> false
              | o -> Logic.equal o (Logic.of_bool (Expr.eval env predicted)))
            obs
      | _ -> true)
    (Fault.enumerate cell)

let test_observed_equals_predicted () =
  List.iter
    (fun cell ->
      check (Fmt.str "%s (domino)" (Cell.name cell)) true (observed_matches_map cell))
    cells_under_test;
  List.iter
    (fun cell ->
      check (Fmt.str "%s (nMOS)" (Cell.name cell)) true (observed_matches_map cell))
    nmos_cells_under_test

(* QCheck: the central theorem over random switching networks — every
   physical fault of a randomly generated domino cell stays combinational
   at charge level and exhibits exactly the predicted faulty function.
   The size is drawn from 0..100 (cells of up to about 26 switches):
   QCheck's default size distribution reaches 10 000 on a few draws in a
   hundred, and the property costs O(switches^2) per cell, so one such
   draw could take most of a minute. *)
let gen_sp_expr =
  let open QCheck2.Gen in
  let var = map (fun i -> Expr.var (Fmt.str "v%d" i)) (int_bound 3) in
  sized_size (int_bound 100)
  @@ fix (fun self n ->
         if n <= 1 then var
         else
           frequency
             [
               (2, var);
               (3, map2 (fun a b -> Expr.and_ [ a; b ]) (self (n / 2)) (self (n / 2)));
               (3, map2 (fun a b -> Expr.or_ [ a; b ]) (self (n / 2)) (self (n / 2)));
             ])

let qcheck_charge_theorem =
  QCheck2.Test.make ~name:"charge-level theorem on random domino cells" ~count:30 gen_sp_expr
    (fun expr ->
      match
        Cell.make ~technology:Technology.Domino_cmos ~inputs:(Expr.support expr) ~output:"zz"
          [ ("zz", expr) ]
      with
      | exception Cell.Invalid _ -> true
      | cell ->
          Cell.arity cell > 4 (* keep the state enumeration cheap *)
          || List.for_all
               (fun f ->
                 Charge_sim.domino_combinational ~fault:f cell
                 &&
                 match Fault_map.map cell f with
                 | Fault_map.Combinational predicted ->
                     List.for_all
                       (fun (v, out) ->
                         let env name =
                           let rec go ns vs =
                             match (ns, vs) with
                             | n :: _, b :: _ when String.equal n name -> b
                             | _ :: ns, _ :: vs -> go ns vs
                             | _ -> invalid_arg "env"
                           in
                           go (Cell.inputs cell) v
                         in
                         match out with
                         | Logic.X -> false
                         | o -> Logic.equal o (Logic.of_bool (Expr.eval env predicted)))
                       (Charge_sim.observed_function ~fault:f cell)
                 | _ -> true)
               (Fault.enumerate cell))

(* --- Event simulation: Fig. 5 (no races and spikes) ------------------------- *)

let test_domino_monotone_vs_static_glitch () =
  let bn = Generators.parity_boolnet 4 in
  let static = Boolnet.to_static ~name:"par_static" bn in
  let cs = Compiled.compile static in
  let sim = Event_sim.create cs in
  (* Walk a Gray-code-breaking sequence and accumulate glitches. *)
  let glitches = ref 0 in
  Event_sim.settle sim (Array.make 4 false);
  for row = 0 to 15 do
    let pi = Array.init 4 (fun i -> (row lsr i) land 1 = 1) in
    let transitions, _ = Event_sim.apply sim pi in
    glitches := !glitches + Event_sim.glitch_count transitions
  done;
  check "static parity glitches" true (!glitches > 0);
  (* Domino: every net transitions at most once per evaluation. *)
  let domino = Boolnet.to_domino_dual_rail ~name:"par_domino" bn in
  let cd = Compiled.compile domino in
  let ok = ref true in
  for row = 0 to 15 do
    let pi = Array.init 4 (fun i -> (row lsr i) land 1 = 1) in
    let dr = Boolnet.dual_rail_vector bn pi in
    let transitions, _ = Event_sim.domino_evaluate cd dr in
    Array.iter (fun t -> if t > 1 then ok := false) transitions
  done;
  check "domino monotone" true !ok

let test_domino_evaluate_correct () =
  let bn = Generators.ripple_adder_boolnet 2 in
  let domino = Boolnet.to_domino_dual_rail bn in
  let cd = Compiled.compile domino in
  let names = bn.Boolnet.inputs in
  for row = 0 to (1 lsl List.length names) - 1 do
    let pi = Array.of_list (List.mapi (fun i _ -> (row lsr i) land 1 = 1) names) in
    let dr = Boolnet.dual_rail_vector bn pi in
    let _, po = Event_sim.domino_evaluate cd dr in
    let po_ref = Compiled.eval cd dr in
    if po <> po_ref then Alcotest.fail "domino evaluation mismatch"
  done;
  check "adder ok" true true

(* --- Two-phase dynamic nMOS networks: Fig. 7 -------------------------------- *)

let test_two_phase_discipline () =
  let chain = Generators.carry_chain ~technology:Technology.Dynamic_nmos 5 in
  check "carry chain disciplined" true (Two_phase.check_discipline chain);
  let tree = Generators.and_tree ~technology:Technology.Dynamic_nmos 8 in
  check "balanced tree disciplined" true (Two_phase.check_discipline tree);
  (* a gate consuming a same-parity net violates the rule *)
  let nand2 = Stdcells.nand 2 Technology.Dynamic_nmos in
  let b = Netlist.Builder.create "bad" in
  let a = Netlist.Builder.input b "a" in
  let cc = Netlist.Builder.input b "cc" in
  let w1 = Netlist.Builder.add b nand2 ~inputs:[ a; cc ] ~output:"w1" in
  let w2 = Netlist.Builder.add b nand2 ~inputs:[ w1; cc ] ~output:"w2" in
  let w3 = Netlist.Builder.add b nand2 ~inputs:[ w2; w1 ] ~output:"w3" in
  (* w3 (level 3) consumes w1 (level 1): same parity *)
  Netlist.Builder.output b w3;
  let bad = Netlist.Builder.finish b in
  check "skip-level edge flagged" false (Two_phase.check_discipline bad)

let test_two_phase_matches_combinational () =
  let nl = Generators.carry_chain ~technology:Technology.Dynamic_nmos 4 in
  let c = Compiled.compile nl in
  let sim = Two_phase.create c in
  let n = Compiled.n_inputs c in
  for row = 0 to (1 lsl n) - 1 do
    let pi = Array.init n (fun i -> (row lsr i) land 1 = 1) in
    if Two_phase.run_vector sim pi <> Compiled.eval c pi then
      Alcotest.fail (Fmt.str "two-phase mismatch at row %d" row)
  done;
  check "outputs valid" true (Two_phase.outputs_valid sim)

let test_two_phase_rejects_domino () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 3 in
  check "domino rejected" true
    (match Two_phase.create (Compiled.compile nl) with
    | _ -> false
    | exception Two_phase.Not_dynamic_nmos -> true)

let test_two_phase_pipeline () =
  (* Balanced AND tree: PIs feed level-1 gates only, so the wave pipeline
     is consistent.  Every Some result must equal the combinational value
     of the vector that entered latency cycles earlier. *)
  let nl = Generators.and_tree ~technology:Technology.Dynamic_nmos 8 in
  let c = Compiled.compile nl in
  let sim = Two_phase.create c in
  let prng = Dynmos_util.Prng.create 77 in
  let vectors = List.init 12 (fun _ -> Array.init 8 (fun _ -> Dynmos_util.Prng.bool prng)) in
  let results = Two_phase.run_stream sim vectors in
  let produced = List.filter_map Fun.id results in
  check "all vectors answered" true (List.length produced >= List.length vectors);
  List.iteri
    (fun i out ->
      if i < List.length vectors then begin
        let expected = Compiled.eval c (List.nth vectors i) in
        if out <> expected then Alcotest.fail (Fmt.str "pipeline result %d wrong" i)
      end)
    produced

(* --- Timing: Fig. 2 / CMOS-3b ------------------------------------------------ *)

let test_timing_arrival () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 4 in
  let c = Compiled.compile nl in
  let delays = Timing.nominal_delays c in
  (* Propagating carry straight through: c0=1, all p=1, all g=0. *)
  let pi =
    Array.of_list
      (List.map
         (fun name -> name.[0] = 'c' || name.[0] = 'p')
         (Netlist.inputs nl))
  in
  let t = Timing.critical_path c delays pi in
  Alcotest.(check (float 1e-9)) "chain of 4" 4.0 t;
  (* Killing propagation shortens the path. *)
  let pi0 = Array.map (fun _ -> false) pi in
  Alcotest.(check (float 1e-9)) "no rise no delay" 0.0 (Timing.critical_path c delays pi0)

let test_at_speed_detection () =
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 4 in
  let c = Compiled.compile nl in
  let delays = Timing.nominal_delays c in
  let pi =
    Array.of_list (List.map (fun name -> name.[0] = 'c' || name.[0] = 'p') (Netlist.inputs nl))
  in
  let period = Timing.min_period c delays [ pi ] in
  (* A 2x-slow first gate pushes the sensitized carry past the period. *)
  check "slow gate detected at speed" true
    (Timing.at_speed_detects c delays ~gate_id:0 ~factor:2.0 ~period pi);
  (* At a relaxed clock the same fault escapes. *)
  check "escapes at slow clock" false
    (Timing.at_speed_detects c delays ~gate_id:0 ~factor:2.0 ~period:(period *. 4.0) pi);
  (* An unsensitized pattern does not expose it. *)
  let pi_dead = Array.map (fun _ -> false) pi in
  check "unsensitized escapes" false
    (Timing.at_speed_detects c delays ~gate_id:0 ~factor:2.0 ~period pi_dead)

(* --- Power / IDDQ ------------------------------------------------------------ *)

let test_power_model () =
  let open Dynmos_util in
  let nl = Generators.carry_chain ~technology:Technology.Domino_cmos 8 in
  let c = Compiled.compile nl in
  let prng = Prng.create 7 in
  let mu, sigma = Power.baseline_stats c in
  check "positive stats" true (mu > 0.0 && sigma > 0.0);
  (* Sampled baseline stays within 6 sigma of the analytic mean. *)
  let sample = Power.baseline_current prng c in
  check "baseline plausible" true (Float.abs (sample -. mu) < 6.0 *. sigma);
  (* The bridge is active exactly when the gate's evaluation path is on. *)
  let pi_on =
    Array.of_list (List.map (fun name -> name.[0] = 'c' || name.[0] = 'p') (Netlist.inputs nl))
  in
  let pi_off = Array.map (fun _ -> false) pi_on in
  check "bridge active" true (Power.bridge_active c ~gate_id:7 pi_on);
  check "bridge inactive" false (Power.bridge_active c ~gate_id:7 pi_off);
  (* False-positive rate of the threshold test is low on this small
     circuit, detection rate high (the large-circuit flip is the bench's
     story). *)
  let fp = Power.detection_rate prng c ~faulty_gate:None pi_on in
  let dr = Power.detection_rate prng c ~faulty_gate:(Some 7) pi_on in
  check "few false positives" true (fp < 0.05);
  check "small circuit detects" true (dr > 0.9)

let () =
  Alcotest.run "sim"
    [
      ( "compiled",
        [
          Alcotest.test_case "matches reference eval" `Quick test_compiled_vs_reference;
          Alcotest.test_case "word packing" `Quick test_eval_words_packing;
          Alcotest.test_case "fault override" `Quick test_override;
          Alcotest.test_case "cone-restricted injection kernel" `Quick test_eval_cone_into;
          Alcotest.test_case "cone extraction" `Quick test_output_expr;
        ] );
      ( "charge_fig1",
        [
          Alcotest.test_case "fig1 function table" `Quick test_fig1_table;
          Alcotest.test_case "contention gives X" `Quick test_static_contention_is_x;
        ] );
      ( "combinationality",
        [
          Alcotest.test_case "domino cells, all faults" `Slow test_domino_always_combinational;
          Alcotest.test_case "dynamic nMOS cells, all faults" `Slow
            test_nmos_always_combinational;
          Alcotest.test_case "static is sequential" `Quick test_static_is_sequential;
          Alcotest.test_case "observed = predicted function" `Slow
            test_observed_equals_predicted;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_charge_theorem ] );
      ( "events_fig5",
        [
          Alcotest.test_case "static glitches, domino monotone" `Quick
            test_domino_monotone_vs_static_glitch;
          Alcotest.test_case "domino evaluation correct" `Quick test_domino_evaluate_correct;
        ] );
      ( "two_phase_fig7",
        [
          Alcotest.test_case "composition discipline" `Quick test_two_phase_discipline;
          Alcotest.test_case "matches combinational" `Quick test_two_phase_matches_combinational;
          Alcotest.test_case "rejects non-dynamic" `Quick test_two_phase_rejects_domino;
          Alcotest.test_case "wave pipelining" `Quick test_two_phase_pipeline;
        ] );
      ( "timing_fig2",
        [
          Alcotest.test_case "arrival times" `Quick test_timing_arrival;
          Alcotest.test_case "at-speed detection" `Quick test_at_speed_detection;
        ] );
      ("power", [ Alcotest.test_case "IDDQ model" `Quick test_power_model ]);
    ]

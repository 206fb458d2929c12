(* A realistic workload: a ripple-carry adder realized in dual-rail domino
   CMOS (the standard way to get non-monotone arithmetic into domino
   logic), taken through the whole test flow:

     fault universe -> PROTEST analysis -> optimized weighted random test
     -> validation, compared against a PODEM deterministic test.

   Run with:  dune exec examples/domino_adder.exe *)

open Dynmos_util
open Dynmos_netlist
open Dynmos_faultsim
open Dynmos_protest
open Dynmos_atpg
open Dynmos_circuits

let () =
  let bits = 3 in
  let bn = Generators.ripple_adder_boolnet bits in
  let nl = Boolnet.to_domino_dual_rail ~name:(Fmt.str "adder%d_domino" bits) bn in
  Format.printf "%d-bit dual-rail domino adder: %d gates, %d nets, %d transistors, depth %d@."
    bits (Netlist.n_gates nl) (Netlist.n_nets nl) (Netlist.n_transistors nl) (Netlist.depth nl);
  Format.printf "domino-legal network: %b@." (Netlist.check_domino nl);

  let u = Faultsim.universe nl in
  Format.printf "fault universe: %d sites from %d distinct cell libraries@."
    (Faultsim.n_sites u)
    (List.length u.Faultsim.libraries);

  (* PROTEST with input-probability optimization. *)
  let report = Protest.analyze ~confidence:0.999 ~optimize:true nl in
  Format.printf "@.%a" Protest.pp_report report;

  (* Validate the optimized random test by fault simulation. *)
  let v = Protest.validate ~seed:7 report in
  Format.printf "random self-test: %d patterns -> %.2f%% coverage@." v.Protest.applied
    (100.0 *. v.Protest.achieved_coverage);

  (* Deterministic baseline: PODEM with fault dropping. *)
  let r = Podem.generate_set u in
  let s = Faultsim.run_ppsfp u r.Podem.vectors in
  Format.printf "PODEM: %d vectors -> %.2f%% coverage (%d faults dropped by simulation)@."
    (Array.length r.Podem.vectors)
    (100.0 *. Faultsim.coverage s)
    r.Podem.covered_by_simulation;

  (* The paper's A2 prescription: apply the deterministic set exactly
     twice. *)
  let doubled = Podem.schedule_double r.Podem.vectors in
  Format.printf "A2 schedule: deterministic set applied twice = %d vectors@."
    (Array.length doubled);

  (* Sanity: uniform random with the same budget as PODEM. *)
  let prng = Prng.create 123 in
  let budget = Array.length r.Podem.vectors in
  let uniform =
    Faultsim.random_patterns prng ~n_inputs:(List.length (Netlist.inputs nl)) ~count:budget
  in
  let su = Faultsim.run_ppsfp u uniform in
  Format.printf "uniform random with the same %d-vector budget: %.2f%% coverage@." budget
    (100.0 *. Faultsim.coverage su)

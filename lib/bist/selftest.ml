open Dynmos_netlist
open Dynmos_sim
open Dynmos_faultsim

(* Random self-test sessions (the paper's Section 4 proposal).

   A pattern source (BILBO in PRPG mode, plain LFSR, or a weighted
   generator) drives the circuit's primary inputs for N clocks at
   operating speed; a MISR compacts the primary outputs; the final
   signature is compared against the fault-free (golden) signature.

   Because the session runs at maximum clock rate, performance-degradation
   faults are covered too: with [check_at_speed], responses are taken from
   the timing model's at-speed sampling, so a slow gate corrupts the
   signature whenever a pattern sensitizes it — the paper's argument for
   self test over external test and over leakage measurement. *)

type source =
  | Lfsr_source of Lfsr.t
  | Bilbo_source of Bilbo.t
  | Weighted_source of Weighted_gen.t

(* Circuits wider than the register are fed from the serial output stream
   (one register clock per input bit — how a scan-configured generator
   drives a wide circuit). *)
let next_pattern source n =
  match source with
  | Lfsr_source l ->
      if n <= Lfsr.width l then Lfsr.next_pattern l n
      else Array.init n (fun _ -> Lfsr.step l)
  | Bilbo_source b ->
      if n <= Bilbo.width b then begin
        let p = Bilbo.pattern b n in
        ignore (Bilbo.step b [||]);
        p
      end
      else Array.init n (fun _ -> Bilbo.step b [||])
  | Weighted_source w -> Weighted_gen.next_pattern w

type session = { compiled : Compiled.t; source : source; n_cycles : int }

(* The signature register's width. *)
let misr_width = 16

let make_session ?(seed = 1) ?(source = `Lfsr) compiled ~n_cycles =
  let n_in = Compiled.n_inputs compiled in
  let reg_width = min 32 (max 16 n_in) in
  let source =
    match source with
    | `Lfsr -> Lfsr_source (Lfsr.create ~seed reg_width)
    | `Bilbo ->
        let b = Bilbo.create ~seed reg_width in
        Bilbo.set_mode b Bilbo.Prpg;
        Bilbo_source b
    | `Weighted weights -> Weighted_source (Weighted_gen.create ~seed weights)
  in
  { compiled; source; n_cycles }

(* Run the session; [response] maps a pattern to the PO vector (this is
   where fault injection and at-speed sampling plug in). *)
let run_with session ~(response : bool array -> bool array) =
  let misr = Misr.create misr_width in
  let n_in = Compiled.n_inputs session.compiled in
  for _ = 1 to session.n_cycles do
    let pattern = next_pattern session.source n_in in
    Misr.step misr (response pattern)
  done;
  Misr.signature misr

let golden session = run_with session ~response:(fun p -> Compiled.eval session.compiled p)

(* NOTE: sessions are stateful (the source advances); use a fresh session
   per run.  [signature_of] rebuilds one from the same parameters. *)
type outcome = { golden_signature : int; faulty_signature : int; detected : bool }

let test_fault ?seed ?source compiled ~n_cycles (site : Faultsim.site) =
  let fresh () = make_session ?seed ?source compiled ~n_cycles in
  let golden_signature = golden (fresh ()) in
  let faulty_signature =
    run_with (fresh ()) ~response:(fun p ->
        Compiled.eval ~override:(site.Faultsim.gate.Netlist.id, site.Faultsim.fn) compiled p)
  in
  { golden_signature; faulty_signature; detected = golden_signature <> faulty_signature }

(* At-speed session against a delay fault: the responses are the timing
   model's sampled outputs. *)
let test_delay_fault ?seed ?source compiled ~n_cycles ~gate_id ~factor ~period =
  let delays = Timing.nominal_delays compiled in
  let slow = Timing.with_slow_gate delays ~gate_id ~factor in
  let fresh () = make_session ?seed ?source compiled ~n_cycles in
  let golden_signature =
    run_with (fresh ()) ~response:(fun p -> Timing.at_speed_sample compiled delays ~period p)
  in
  let faulty_signature =
    run_with (fresh ()) ~response:(fun p -> Timing.at_speed_sample compiled slow ~period p)
  in
  { golden_signature; faulty_signature; detected = golden_signature <> faulty_signature }

(* Whole-universe self-test coverage: how many fault sites a session of
   [n_cycles] catches. *)
let coverage ?seed ?source (u : Faultsim.universe) ~n_cycles =
  let compiled = u.Faultsim.compiled in
  let detected = ref 0 in
  Array.iter
    (fun site ->
      let o = test_fault ?seed ?source compiled ~n_cycles site in
      if o.detected then incr detected)
    u.Faultsim.sites;
  float_of_int !detected /. float_of_int (max 1 (Faultsim.n_sites u))

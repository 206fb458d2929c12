open Dynmos_netlist

(* Lumped-delay timing simulation and maximum-speed sampling.

   Substitute for the paper's electrical reality: each gate has a nominal
   delay; a performance-degradation fault multiplies one gate's delay.
   For a precharged (domino) network the only transitions during
   evaluation are rises, so a primary output sampled at the clock period
   reads 0 unless its rise completed in time.  This turns the paper's
   Fig. 2 / CMOS-3(b) argument into executable detection: a slow gate is
   seen as s0-z exactly when the pattern sensitizes a path through it and
   the period is tight. *)

type delays = float array  (* per gate id *)

let nominal_delays compiled = Array.make (Array.length (Compiled.gates compiled)) 1.0

let with_slow_gate delays ~gate_id ~factor =
  let d = Array.copy delays in
  d.(gate_id) <- d.(gate_id) *. factor;
  d

(* Rise arrival time of every net for one vector: inputs are ready at 0;
   a gate whose output evaluates to 1 rises [delay] after the latest of
   its rising (value-1) inputs; value-0 nets never transition. *)
let arrival compiled delays pi =
  let n = Compiled.n_nets compiled in
  let values = Compiled.eval_nets compiled pi in
  let time = Array.make n 0.0 in
  Array.iter
    (fun cg ->
      let out = cg.Compiled.out in
      if values.(out) then begin
        let latest = ref 0.0 in
        Array.iter
          (fun i -> if values.(i) then latest := Float.max !latest time.(i))
          cg.Compiled.ins;
        time.(out) <- !latest +. delays.(cg.Compiled.g.Netlist.id)
      end)
    (Compiled.gates compiled);
  (values, time)

let critical_path compiled delays pi =
  let _, time = arrival compiled delays pi in
  Array.fold_left
    (fun acc i -> Float.max acc time.(i))
    0.0
    (Compiled.po_indices compiled)

(* Worst-case evaluation time over a pattern set (the minimum safe clock
   period for those patterns). *)
let min_period compiled delays patterns =
  List.fold_left (fun acc pi -> Float.max acc (critical_path compiled delays pi)) 0.0 patterns

(* Sample the primary outputs at [period]: a rising output whose arrival
   exceeds the period still reads its precharged 0. *)
let at_speed_sample compiled delays ~period pi =
  let values, time = arrival compiled delays pi in
  Array.map
    (fun i -> values.(i) && time.(i) <= period +. 1e-9)
    (Compiled.po_indices compiled)

(* Does maximum-speed testing detect a delay fault at [gate_id] with the
   given slow-down under this pattern?  (Paper: "applying maximum speed
   testing may detect this fault as an s0-z".) *)
let at_speed_detects compiled delays ~gate_id ~factor ~period pi =
  let slow = with_slow_gate delays ~gate_id ~factor in
  let good = at_speed_sample compiled delays ~period pi in
  let faulty = at_speed_sample compiled slow ~period pi in
  good <> faulty

open Dynmos_expr
open Dynmos_switchnet
open Dynmos_cell

(* The technology-dependent mapping from physical faults to logical fault
   effects — the executable form of the paper's Section-3 case analysis.

   The paper's central theorem is encoded in the result type: for dynamic
   nMOS and domino CMOS every fault of the common physical model maps to
   [Combinational] or [Delay] — never to [Sequential].  Static CMOS is the
   negative control: its stuck-open faults map to [Sequential], which is
   exactly the Fig. 1 problem the dynamic techniques avoid.

   Ratioed cases (domino CMOS-3, the Fig. 2 inverter, closed devices of
   static gates) depend on electrical strength.  The paper splits CMOS-3
   into a) R(T1) << R(T2) + R(SN): the node cannot be pulled down -> hard
   s0-z, and b) otherwise: the node needs more (perhaps infinite) time ->
   delay fault, detectable as s0-z by maximum-speed testing.  We resolve
   the split with an [electrical] parameter carrying device resistances. *)

type electrical = {
  r_precharge : float;  (* on-resistance of the precharge device *)
  r_evaluate : float;   (* on-resistance of the foot (evaluate) device *)
  r_inverter_p : float;
  r_inverter_n : float;
  strong_ratio : float;
      (* a stuck-closed device "wins" the fight (hard logic fault) when its
         resistance is below [strong_ratio] times the opposing path's *)
  delay_factor : float; (* slow-down assigned to ratioed delay faults *)
}

(* Paper-table defaults: every ratioed fight resolves to the hard logic
   fault (case a), so CMOS-3 joins CMOS-2 in class 9 exactly as printed in
   the Section-5 table.  Experiments override this to explore case b. *)
let default_electrical =
  {
    r_precharge = 0.1;
    r_evaluate = 1.0;
    r_inverter_p = 0.1;
    r_inverter_n = 0.1;
    strong_ratio = 0.5;
    delay_factor = 10.0;
  }

(* A weak-device variant under which stuck-closed restoring devices lose
   the fight: CMOS-3 becomes the case-b delay fault. *)
let weak_electrical =
  {
    r_precharge = 20.0;
    r_evaluate = 1.0;
    r_inverter_p = 20.0;
    r_inverter_n = 20.0;
    strong_ratio = 0.5;
    delay_factor = 10.0;
  }

type logical =
  | Combinational of Expr.t
      (* the faulty cell computes this (combinational!) function *)
  | Delay of { observed_as : Expr.t option; factor : float }
      (* performance degradation; [observed_as] is the function seen when
         sampling at maximum speed (None: possibly undetectable, CMOS-1) *)
  | Sequential of { retain_when : Expr.t }
      (* static CMOS stuck-open: output keeps its previous value whenever
         [retain_when] holds (the Fig. 1 memory states) *)
  | Contention of { fight_when : Expr.t; resolves_to : Expr.t; factor : float }
      (* both networks conduct for [fight_when]; the ratioed fight resolves
         to [resolves_to] with degraded timing (the Fig. 2 inverter) *)

let stuck_at_output b = Combinational (Expr.Const b)

(* Wrap a faulty transmission function into the cell's logic convention. *)
let of_transmission cell t' =
  if Technology.inverts_transmission (Cell.technology cell) then Combinational (Expr.not_ t')
  else Combinational t'

let sn_faulty cell f =
  of_transmission cell (Spnet.faulty_transmission (Cell.network cell) f)

let sn_faulty_multi cell fs =
  of_transmission cell (Spnet.faulty_transmission_multi (Cell.network cell) fs)

(* Open line at the gates driven by an input: by A1 the floating gates read
   low, i.e. every switch of that input behaves as gate-open. *)
let input_gate_open cell v =
  let faults =
    List.map (fun s -> Spnet.Gate_open s.Spnet.id) (Spnet.switches_of_input (Cell.network cell) v)
  in
  sn_faulty_multi cell faults

(* Dynamic nMOS T_i closed (paper case nMOS-(n+i)): the complementary clock
   charges the input node through the closed channel, so the *input* reads
   stuck-at-1 — every switch driven by it conducts. *)
let dynamic_input_stuck_1 cell i =
  match Spnet.find_switch (Cell.network cell) i with
  | None -> invalid_arg "Fault_map: unknown switch id"
  | Some s ->
      let faults =
        List.map
          (fun s' -> Spnet.Switch_closed s'.Spnet.id)
          (Spnet.switches_of_input (Cell.network cell) s.Spnet.input)
      in
      sn_faulty_multi cell faults

let strong el ~closed_r ~opposing_r = closed_r < el.strong_ratio *. opposing_r

(* Opposing-path resistance for the domino CMOS-3 fight: evaluate device in
   series with the cheapest conducting SN path. *)
let pulldown_path_r el cell =
  match Spnet.min_resistance (Cell.network cell) with
  | Some r -> el.r_evaluate +. r
  | None -> infinity

let map ?(electrical = default_electrical) cell fault =
  let el = electrical in
  let tech = Cell.technology cell in
  let t = Spnet.transmission (Cell.network cell) in
  match (tech, fault) with
  (* ---- Classic stuck-at model (any technology) --------------------- *)
  | _, Fault.Stuck_at (v, b) ->
      if String.equal v (Cell.output cell) then stuck_at_output b
      else Combinational (Expr.cofactor v b (Cell.logic cell))
  (* ---- Switching-network faults ------------------------------------ *)
  | Technology.Dynamic_nmos, Fault.Network_closed i -> dynamic_input_stuck_1 cell i
  | (Technology.Domino_cmos | Technology.Nmos_pulldown), Fault.Network_closed i ->
      sn_faulty cell (Spnet.Switch_closed i)
  | (Technology.Dynamic_nmos | Technology.Domino_cmos | Technology.Nmos_pulldown), Fault.Network_open i
    ->
      sn_faulty cell (Spnet.Switch_open i)
  | _, Fault.Input_gate_open v -> input_gate_open cell v
  (* ---- Static CMOS switch-level faults: the problem cases ---------- *)
  | Technology.Static_cmos, Fault.Network_open i ->
      (* Pull-down loses minterms; where the pull-up (dual, = !T) is also
         off the output floats and retains its value: sequential! *)
      let t' = Spnet.faulty_transmission (Cell.network cell) (Spnet.Switch_open i) in
      let retain = Expr.(t && Expr.not_ t') in
      if Truth_table.equal_exprs retain Expr.false_ then Combinational (Expr.not_ t')
      else Sequential { retain_when = retain }
  | Technology.Static_cmos, Fault.Pullup_open i ->
      (* The pull-up is the dual network; opening one of its switches makes
         the output float where the pull-down is off too. *)
      let dual_net = Spnet.dual (Cell.network cell) in
      let up' = Spnet.faulty_transmission dual_net (Spnet.Switch_open i) in
      let retain = Expr.(Expr.not_ t && Expr.not_ up') in
      if Truth_table.equal_exprs retain Expr.false_ then Combinational up'
      else Sequential { retain_when = retain }
  | Technology.Static_cmos, Fault.Network_closed i ->
      (* Extra pull-down minterms fight the pull-up (Fig. 2): where both
         conduct, the ratioed fight resolves to the stronger side. *)
      let t' = Spnet.faulty_transmission (Cell.network cell) (Spnet.Switch_closed i) in
      let fight = Expr.(t' && Expr.not_ t) in
      if Truth_table.equal_exprs fight Expr.false_ then Combinational (Expr.not_ t')
      else
        Contention { fight_when = fight; resolves_to = Expr.not_ t'; factor = el.delay_factor }
  | Technology.Static_cmos, Fault.Pullup_closed i ->
      let dual_net = Spnet.dual (Cell.network cell) in
      let up' = Spnet.faulty_transmission dual_net (Spnet.Switch_closed i) in
      let fight = Expr.(up' && t) in
      if Truth_table.equal_exprs fight Expr.false_ then Combinational up'
      else Contention { fight_when = fight; resolves_to = Expr.not_ t; factor = el.delay_factor }
  | Technology.Nmos_pulldown, Fault.Pullup_open _ | Technology.Nmos_pulldown, Fault.Pullup_closed _
    ->
      invalid_arg "Fault_map: nMOS pull-down cells have no pull-up network"
  (* ---- Dynamic nMOS clocking faults (Fig. 6) ------------------------ *)
  | Technology.Dynamic_nmos, Fault.Precharge_open ->
      (* nMOS-(2n+1): z was discharged once (A2) and can never be pulled
         up again: s0-z. *)
      stuck_at_output false
  | Technology.Dynamic_nmos, Fault.Precharge_closed ->
      (* nMOS-(2n+2): permanent drain-source path discharges z: s0-z.  The
         paper's "very interesting fact": open and closed precharge give
         the same class. *)
      stuck_at_output false
  | Technology.Dynamic_nmos, Fault.Connection_open Fault.Precharge_path ->
      (* Never precharged; A1: s0-z. *)
      stuck_at_output false
  | Technology.Dynamic_nmos, Fault.Connection_open Fault.Pulldown_path ->
      (* Opens at S(n+2)/S(n+3): z can never be discharged: s1-z. *)
      stuck_at_output true
  (* ---- Domino CMOS clocking faults (Fig. 4) ------------------------- *)
  | Technology.Domino_cmos, Fault.Evaluate_closed ->
      (* CMOS-1: T2 is there for timing only; during precharge all domino
         inputs are low so SN never conducts anyway.  Not modelable as a
         logic fault; possibly undetectable. *)
      Delay { observed_as = None; factor = el.delay_factor }
  | Technology.Domino_cmos, Fault.Evaluate_open ->
      (* CMOS-2: the internal node is never pulled down: s0-z. *)
      stuck_at_output false
  | Technology.Domino_cmos, Fault.Precharge_closed ->
      (* CMOS-3: ratioed fight between the stuck-closed precharge pull-up
         and the evaluation path. *)
      if strong el ~closed_r:el.r_precharge ~opposing_r:(pulldown_path_r el cell) then
        stuck_at_output false (* case a: node cannot fall: hard s0-z *)
      else Delay { observed_as = Some Expr.false_; factor = el.delay_factor }
      (* case b: slow fall, seen as s0-z at maximum speed *)
  | Technology.Domino_cmos, Fault.Precharge_open ->
      (* CMOS-4: never precharged; by A1 the internal node reads low, the
         inverter output is stuck high: s1-z. *)
      stuck_at_output true
  | Technology.Domino_cmos, Fault.Inverter_p_open -> stuck_at_output false
  | Technology.Domino_cmos, Fault.Inverter_n_open ->
      (* By A2 the output was high once and can never be pulled low. *)
      stuck_at_output true
  | Technology.Domino_cmos, Fault.Inverter_p_closed ->
      if strong el ~closed_r:el.r_inverter_p ~opposing_r:el.r_inverter_n then stuck_at_output true
      else Delay { observed_as = Some Expr.true_; factor = el.delay_factor }
  | Technology.Domino_cmos, Fault.Inverter_n_closed ->
      if strong el ~closed_r:el.r_inverter_n ~opposing_r:el.r_inverter_p then
        stuck_at_output false
      else Delay { observed_as = Some Expr.false_; factor = el.delay_factor }
  | Technology.Domino_cmos, Fault.Connection_open Fault.Pulldown_path -> stuck_at_output false
  | Technology.Domino_cmos, Fault.Connection_open Fault.Precharge_path -> stuck_at_output true
  (* ---- Inapplicable combinations ------------------------------------ *)
  | ( ( Technology.Static_cmos | Technology.Bipolar | Technology.Nmos_pulldown
      | Technology.Dynamic_nmos ),
      ( Fault.Evaluate_open | Fault.Evaluate_closed | Fault.Inverter_p_open
      | Fault.Inverter_p_closed | Fault.Inverter_n_open | Fault.Inverter_n_closed ) )
  | (Technology.Static_cmos | Technology.Bipolar), Fault.Precharge_open
  | (Technology.Static_cmos | Technology.Bipolar), Fault.Precharge_closed
  | (Technology.Static_cmos | Technology.Bipolar), Fault.Connection_open _
  | Technology.Nmos_pulldown, Fault.Precharge_open
  | Technology.Nmos_pulldown, Fault.Precharge_closed
  | Technology.Nmos_pulldown, Fault.Connection_open _
  | Technology.Bipolar, Fault.Network_open _
  | Technology.Bipolar, Fault.Network_closed _
  | (Technology.Dynamic_nmos | Technology.Domino_cmos | Technology.Bipolar), Fault.Pullup_open _
  | (Technology.Dynamic_nmos | Technology.Domino_cmos | Technology.Bipolar), Fault.Pullup_closed _
    ->
      invalid_arg "Fault_map.map: fault not applicable to this technology"

(* The paper's claim 2 as a decidable check: under the physical fault model
   no fault of a dynamic-technology cell yields sequential behaviour. *)
let never_sequential cell =
  Technology.is_dynamic (Cell.technology cell)
  && List.for_all
       (fun f -> match map cell f with Sequential _ -> false | _ -> true)
       (Fault.enumerate cell)

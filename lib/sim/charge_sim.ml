open Dynmos_expr
open Dynmos_switchnet
open Dynmos_cell
open Dynmos_core

(* Charge-level simulation of single gates.

   This is the model that lets the paper's claims be *executed* rather
   than assumed: a node is either actively driven or floating with a
   retained charge; floating nodes lose their charge after [leak_cycles]
   clock cycles (assumption A1: open gates read low because they leak).

   - [domino_cycle] runs one precharge/evaluate cycle of a domino CMOS
     gate (Fig. 4) with an optional injected physical fault;
   - [dynamic_nmos_cycle] does the same for a dynamic nMOS gate (Fig. 6);
   - [static_step] applies one input vector to a static CMOS gate, whose
     output node *retains* its value when neither network conducts — the
     Fig. 1 stuck-open memory.

   Combinationality of a faulted dynamic gate is then a checkable
   property: the valid output of a cycle must not depend on the gate's
   internal state at the start of the cycle. *)

type node = Driven of bool | Floating of bool | Unknown

let node_value = function Driven v | Floating v -> Logic.of_bool v | Unknown -> Logic.X

let equal_node a b =
  match (a, b) with
  | Driven x, Driven y | Floating x, Floating y -> Bool.compare x y = 0
  | Unknown, Unknown -> true
  | _, _ -> false

(* One clock cycle without a driver.  A previously driven node keeps its
   charge (dynamic retention is the operating principle of this logic and
   far outlasts a test on clock timescales); a node that was *never*
   charged reads low — that is assumption A1, the same leakage argument
   the paper applies to open gates.  This is exactly what makes the
   paper's A2-based classes come out: inverter-n-open retains the 1 it
   received when the node was last driven (s1-z), a never-precharged node
   (CMOS-4) reads 0. *)
let decay = function
  | Driven v -> Floating v
  | Floating v -> Floating v
  | Unknown -> Floating false

type domino_state = { y : node; z : node }

let domino_initial = { y = Unknown; z = Unknown }

let is_fault cell fault candidates =
  ignore cell;
  match fault with Some f -> List.exists (fun c -> Fault.equal f c) candidates | None -> false

(* Does the (possibly faulted) switching network conduct under [env]? *)
let sn_conducts cell fault env =
  let net = Cell.network cell in
  let t' =
    match fault with
    | Some (Fault.Network_open i) -> Spnet.faulty_transmission net (Spnet.Switch_open i)
    | Some (Fault.Network_closed i) -> Spnet.faulty_transmission net (Spnet.Switch_closed i)
    | Some (Fault.Input_gate_open v) ->
        Spnet.faulty_transmission_multi net
          (List.map (fun s -> Spnet.Gate_open s.Spnet.id) (Spnet.switches_of_input net v))
    | _ -> Spnet.transmission net
  in
  Expr.eval env t'

let env_of_inputs cell inputs =
  let bound = List.combine (Cell.inputs cell) inputs in
  fun v ->
    match List.assoc_opt v bound with
    | Some b -> b
    | None -> invalid_arg ("Charge_sim: unbound input " ^ v)

(* Resolve a ratioed fight between a pull-up and a pull-down path. *)
let resolve_fight (el : Fault_map.electrical) ~r_up ~r_down =
  if r_up < el.Fault_map.strong_ratio *. r_down then Driven true
  else if r_down < el.Fault_map.strong_ratio *. r_up then Driven false
  else Unknown

(* Output inverter with optional device faults; input is the y node. *)
let inverter el fault ~y ~z_prev =
  let has c = match fault with Some f -> Fault.equal f c | None -> false in
  match y with
  | Unknown ->
      if has Fault.Inverter_p_closed && has Fault.Inverter_n_open then Driven true else Unknown
  | Driven v | Floating v ->
      let p_on = ((not v) || has Fault.Inverter_p_closed) && not (has Fault.Inverter_p_open) in
      let n_on = (v || has Fault.Inverter_n_closed) && not (has Fault.Inverter_n_open) in
      if p_on && n_on then
        resolve_fight el ~r_up:el.Fault_map.r_inverter_p ~r_down:el.Fault_map.r_inverter_n
      else if p_on then Driven true
      else if n_on then Driven false
      else decay z_prev

(* --- Domino CMOS (Fig. 4) --------------------------------------------- *)

let domino_cycle ?(electrical = Fault_map.default_electrical) ?fault cell state inputs =
  let el = electrical in
  let env = env_of_inputs cell inputs in
  let has c = is_fault cell fault [ c ] in
  let pulldown_conn_ok = not (has (Fault.Connection_open Fault.Pulldown_path)) in
  let precharge_conn_ok = not (has (Fault.Connection_open Fault.Precharge_path)) in
  (* Precharge phase: clock low; all domino gate inputs are low (they are
     outputs of other domino gates, Fig. 5). *)
  let y_pre =
    let pullup = (not (has Fault.Precharge_open)) && precharge_conn_ok in
    let foot = has Fault.Evaluate_closed in
    let pd = foot && pulldown_conn_ok && sn_conducts cell fault (fun _ -> false) in
    if pullup && pd then
      resolve_fight el ~r_up:el.Fault_map.r_precharge
        ~r_down:
          (el.Fault_map.r_evaluate
          +. Option.value ~default:infinity (Spnet.min_resistance (Cell.network cell)))
    else if pullup then Driven true
    else if pd then Driven false
    else decay state.y
  in
  let z_pre = inverter el fault ~y:y_pre ~z_prev:(decay state.z) in
  (* Evaluate phase: clock high. *)
  let y_eval =
    let pullup = has Fault.Precharge_closed && precharge_conn_ok in
    let foot = not (has Fault.Evaluate_open) in
    let pd = foot && pulldown_conn_ok && sn_conducts cell fault env in
    let r_path =
      el.Fault_map.r_evaluate
      +. (match Spnet.resistance (Cell.network cell) env with Some r -> r | None -> infinity)
    in
    if pullup && pd then resolve_fight el ~r_up:el.Fault_map.r_precharge ~r_down:r_path
    else if pd then Driven false
    else if pullup then Driven true
    else (
      (* The precharged node holds its charge within the cycle. *)
      match y_pre with Driven v -> Floating v | s -> s)
  in
  let z_eval = inverter el fault ~y:y_eval ~z_prev:z_pre in
  ({ y = y_eval; z = z_eval }, node_value z_eval)

(* --- Dynamic nMOS (Fig. 6) --------------------------------------------- *)

type nmos_state = { zn : node }

let nmos_initial = { zn = Unknown }

(* Dynamic nMOS T_i stuck closed: the complementary clock charges the
   *input* node through the closed channel, so during evaluation the whole
   input reads 1 (paper case nMOS-(n+i)). *)
let nmos_effective_env cell fault env =
  match fault with
  | Some (Fault.Network_closed i) -> (
      match Spnet.find_switch (Cell.network cell) i with
      | Some s -> fun v -> if String.equal v s.Spnet.input then true else env v
      | None -> env)
  | _ -> env

let dynamic_nmos_cycle ?(electrical = Fault_map.default_electrical) ?fault cell state inputs =
  ignore electrical;
  let env = env_of_inputs cell inputs in
  let has c = is_fault cell fault [ c ] in
  let pulldown_conn_ok = not (has (Fault.Connection_open Fault.Pulldown_path)) in
  let precharge_conn_ok = not (has (Fault.Connection_open Fault.Precharge_path)) in
  (* Phase 1 (clock active): z precharged through T(n+1); input nodes are
     being charged to their logical values. *)
  let z_pre =
    let pullup = (not (has Fault.Precharge_open)) && precharge_conn_ok in
    if pullup then Driven true else decay state.zn
  in
  (* Phase 2 (clock falls): T(n+1) off — unless stuck closed, which keeps a
     permanent drain-source path that the evaluation fights and, per the
     paper, discharges z (the path goes to the now-low clock line). *)
  let z_eval =
    let env' =
      match fault with
      | Some (Fault.Network_closed _) -> nmos_effective_env cell fault env
      | _ -> env
    in
    let sn_fault =
      (* Network_closed is modelled through the input node, not the
         channel, in dynamic nMOS. *)
      match fault with Some (Fault.Network_closed _) -> None | f -> f
    in
    let pd = pulldown_conn_ok && sn_conducts cell sn_fault env' in
    if has Fault.Precharge_closed then Driven false
    else if pd then Driven false
    else match z_pre with Driven v -> Floating v | s -> s
  in
  ({ zn = z_eval }, node_value z_eval)

(* --- Static CMOS (Fig. 1) ---------------------------------------------- *)

type static_state = { out : node }

let static_initial = { out = Unknown }

let static_step ?(electrical = Fault_map.default_electrical) ?fault cell state inputs =
  let el = electrical in
  let env = env_of_inputs cell inputs in
  let net = Cell.network cell in
  let dual_net = Spnet.dual net in
  let pd =
    match fault with
    | Some (Fault.Network_open i) ->
        Expr.eval env (Spnet.faulty_transmission net (Spnet.Switch_open i))
    | Some (Fault.Network_closed i) ->
        Expr.eval env (Spnet.faulty_transmission net (Spnet.Switch_closed i))
    | _ -> Expr.eval env (Spnet.transmission net)
  in
  let pu =
    match fault with
    | Some (Fault.Pullup_open i) ->
        Expr.eval env (Spnet.faulty_transmission dual_net (Spnet.Switch_open i))
    | Some (Fault.Pullup_closed i) ->
        Expr.eval env (Spnet.faulty_transmission dual_net (Spnet.Switch_closed i))
    | _ -> Expr.eval env (Spnet.transmission dual_net)
  in
  let out =
    if pd && pu then resolve_fight el ~r_up:el.Fault_map.r_inverter_p ~r_down:el.Fault_map.r_inverter_n
    else if pd then Driven false
    else if pu then Driven true
    else (
      (* Neither network conducts: the output node keeps its charge.  This
         is the sequential behaviour of Fig. 1. *)
      match state.out with Driven v | Floating v -> Floating v | Unknown -> Unknown)
  in
  ({ out }, node_value out)

(* --- Combinationality checking ----------------------------------------- *)

let bool_vectors n =
  List.init (1 lsl n) (fun row -> List.init n (fun i -> (row lsr i) land 1 = 1))

(* A2 warm-up: apply every input vector once (for cell-sized gates this
   certainly charges and discharges every node of the fault-free circuit,
   and gives the faulty circuit the history assumption A2 requires). *)
let domino_warmup ?electrical ?fault cell =
  List.fold_left
    (fun st v -> fst (domino_cycle ?electrical ?fault cell st v))
    domino_initial
    (bool_vectors (Cell.arity cell))

let nmos_warmup ?electrical ?fault cell =
  List.fold_left
    (fun st v -> fst (dynamic_nmos_cycle ?electrical ?fault cell st v))
    nmos_initial
    (bool_vectors (Cell.arity cell))

(* Claim 2 executed: after the A2 warm-up, does the valid output of every
   cycle depend only on that cycle's inputs?  We enumerate reachable
   states (from the warm-up state, closed under every input vector) and
   require a unique output per vector across all of them. *)
let combinational_after_warmup ~cycle ~warm_state ~equal_state ~arity =
  let vectors = bool_vectors arity in
  let reachable = ref [ warm_state ] in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun st ->
        List.iter
          (fun v ->
            let st', _ = cycle st v in
            if not (List.exists (equal_state st') !reachable) then begin
              reachable := st' :: !reachable;
              changed := true
            end)
          vectors)
      !reachable
  done;
  List.for_all
    (fun v ->
      match List.map (fun st -> snd (cycle st v)) !reachable with
      | [] -> true
      | o :: os -> List.for_all (Logic.equal o) os)
    vectors

let domino_combinational ?electrical ?fault cell =
  let cycle st v = domino_cycle ?electrical ?fault cell st v in
  combinational_after_warmup ~cycle
    ~warm_state:(domino_warmup ?electrical ?fault cell)
    ~equal_state:(fun a b -> equal_node a.y b.y && equal_node a.z b.z)
    ~arity:(Cell.arity cell)

let nmos_combinational ?electrical ?fault cell =
  let cycle st v = dynamic_nmos_cycle ?electrical ?fault cell st v in
  combinational_after_warmup ~cycle
    ~warm_state:(nmos_warmup ?electrical ?fault cell)
    ~equal_state:(fun a b -> equal_node a.zn b.zn)
    ~arity:(Cell.arity cell)

let static_sequential ?electrical ?fault cell =
  (* Does there exist an input vector whose output differs depending on
     the stored state?  (The Fig. 1 test, as an existence check.) *)
  let vectors = bool_vectors (Cell.arity cell) in
  let states =
    [ { out = Driven false }; { out = Driven true } ]
  in
  List.exists
    (fun v ->
      match
        List.map (fun st -> snd (static_step ?electrical ?fault cell st v)) states
      with
      | [ a; b ] -> not (Logic.equal a b)
      | _ -> false)
    vectors

(* The observed logic function of a (possibly faulty) dynamic gate after
   warm-up — compared against [Fault_map.map]'s prediction in tests. *)
let observed_function ?electrical ?fault cell =
  let tech = Cell.technology cell in
  let warm, cycle =
    match tech with
    | Technology.Domino_cmos ->
        let w = domino_warmup ?electrical ?fault cell in
        (`D w, fun st v -> match st with
           | `D s -> let s', o = domino_cycle ?electrical ?fault cell s v in (`D s', o)
           | `N _ ->
               invalid_arg
                 "Charge_sim.observed_function: dynamic-NMOS state fed to a domino cycle")
    | Technology.Dynamic_nmos ->
        let w = nmos_warmup ?electrical ?fault cell in
        (`N w, fun st v -> match st with
           | `N s -> let s', o = dynamic_nmos_cycle ?electrical ?fault cell s v in (`N s', o)
           | `D _ ->
               invalid_arg
                 "Charge_sim.observed_function: domino state fed to a dynamic-NMOS cycle")
    | _ -> invalid_arg "Charge_sim.observed_function: dynamic technologies only"
  in
  let vectors = bool_vectors (Cell.arity cell) in
  let _, outs =
    List.fold_left
      (fun (st, acc) v ->
        let st', o = cycle st v in
        (st', (v, o) :: acc))
      (warm, []) vectors
  in
  List.rev outs

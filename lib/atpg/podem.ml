open Dynmos_expr
open Dynmos_netlist
open Dynmos_sim
open Dynmos_faultsim

(* PODEM-style deterministic test generation (Goel & Rosales, the paper's
   reference [13]) generalized to function-class faults.

   Classical PODEM assigns primary inputs one at a time, simulating after
   each assignment and backtracking on failure.  Because the paper's fault
   model makes every fault a *combinational function replacement* at one
   gate, the D-calculus generalizes cleanly to simulating the good and the
   faulty circuit side by side in three-valued logic:

     - the fault is "excited" when the good and faulty values of the
       faulty gate's output differ and are both definite;
     - the "D-frontier" is the set of gates with a definite good/faulty
       difference on some input but an undecided (X) difference at the
       output;
     - a test is found when some primary output has definite, differing
       good and faulty values.

   Objectives are chosen from the fault site (excitation) or the
   D-frontier (propagation) and backtraced to an unassigned primary input
   through cube covers of the gate functions. *)

type result = Test of bool array | Untestable | Aborted

(* Three-valued evaluation of a compiled gate function. *)
let eval_fn3 (fn : Compiled.gate_fn) (ins : Logic.v array) =
  let tt = fn.Compiled.table in
  let n = Array.length ins in
  (* Try all completions of X inputs; if all agree the output is definite.
     Gate fan-in is small, so 2^#X is fine. *)
  let xs = ref [] in
  for i = n - 1 downto 0 do
    if Logic.equal ins.(i) Logic.X then xs := i :: !xs
  done;
  let xs = Array.of_list !xs in
  let k = Array.length xs in
  let base =
    let row = ref 0 in
    Array.iteri (fun i v -> if Logic.equal v Logic.One then row := !row lor (1 lsl i)) ins;
    !row
  in
  let first = ref None in
  let all_same = ref true in
  for c = 0 to (1 lsl k) - 1 do
    let row = ref base in
    for j = 0 to k - 1 do
      if (c lsr j) land 1 = 1 then row := !row lor (1 lsl xs.(j))
    done;
    let v = Truth_table.get tt !row in
    match !first with
    | None -> first := Some v
    | Some f -> if f <> v then all_same := false
  done;
  match (!first, !all_same) with
  | Some v, true -> Logic.of_bool v
  | _ -> Logic.X

type state = {
  u : Faultsim.universe;
  site : Faultsim.site;
  pi : Logic.v array;           (* current PI assignment *)
  good : Logic.v array;         (* per net *)
  faulty : Logic.v array;
}

let simulate st =
  let compiled = st.u.Faultsim.compiled in
  let n_in = Compiled.n_inputs compiled in
  for i = 0 to n_in - 1 do
    st.good.(i) <- st.pi.(i);
    st.faulty.(i) <- st.pi.(i)
  done;
  Array.iter
    (fun cg ->
      let gins = Array.map (fun i -> st.good.(i)) cg.Compiled.ins in
      let fins = Array.map (fun i -> st.faulty.(i)) cg.Compiled.ins in
      st.good.(cg.Compiled.out) <- eval_fn3 cg.Compiled.fn gins;
      let ffn =
        if cg.Compiled.g.Netlist.id = st.site.Faultsim.gate.Netlist.id then st.site.Faultsim.fn
        else cg.Compiled.fn
      in
      st.faulty.(cg.Compiled.out) <- eval_fn3 ffn fins)
    (Compiled.gates compiled)

let detected st =
  Array.exists
    (fun po ->
      match (st.good.(po), st.faulty.(po)) with
      | Logic.One, Logic.Zero | Logic.Zero, Logic.One -> true
      | _ -> false)
    (Compiled.po_indices st.u.Faultsim.compiled)

(* The fault can still possibly be detected: some PO pair is (X, _) or
   (_, X) or differing — otherwise every PO agrees definitely. *)
let still_possible st =
  Array.exists
    (fun po ->
      match (st.good.(po), st.faulty.(po)) with
      | Logic.One, Logic.Zero | Logic.Zero, Logic.One -> true
      | Logic.X, _ | _, Logic.X -> true
      | Logic.One, Logic.One | Logic.Zero, Logic.Zero -> false)
    (Compiled.po_indices st.u.Faultsim.compiled)

(* --- Objective and backtrace ------------------------------------------- *)

(* Pick (net, value) that would help: excitation first, then propagation
   through the D-frontier. *)
let objective st =
  let compiled = st.u.Faultsim.compiled in
  let site_gate = st.site.Faultsim.gate.Netlist.id in
  let cg = (Compiled.gates compiled).(site_gate) in
  let out = cg.Compiled.out in
  let excited =
    match (st.good.(out), st.faulty.(out)) with
    | Logic.One, Logic.Zero | Logic.Zero, Logic.One -> true
    | _ -> false
  in
  if not excited then begin
    (* Find a gate-input completion on which good and faulty functions
       differ; aim the first X input at the value from such a cube. *)
    let gins = Array.map (fun i -> st.good.(i)) cg.Compiled.ins in
    let n = Array.length gins in
    let target = ref None in
    let rows = 1 lsl n in
    (let row = ref 0 in
     while !target = None && !row < rows do
       let consistent =
         let ok = ref true in
         for i = 0 to n - 1 do
           match gins.(i) with
           | Logic.One -> if (!row lsr i) land 1 = 0 then ok := false
           | Logic.Zero -> if (!row lsr i) land 1 = 1 then ok := false
           | Logic.X -> ()
         done;
         !ok
       in
       if
         consistent
         && Truth_table.get cg.Compiled.fn.Compiled.table !row
            <> Truth_table.get st.site.Faultsim.fn.Compiled.table !row
       then target := Some !row;
       incr row
     done);
    match !target with
    | None -> None (* fault cannot be excited under current assignment *)
    | Some row ->
        (* Choose the first X input of the gate; desired value from the row. *)
        let rec pick i =
          if i >= Array.length gins then None
          else if Logic.equal gins.(i) Logic.X then
            Some (cg.Compiled.ins.(i), (row lsr i) land 1 = 1)
          else pick (i + 1)
        in
        pick 0
  end
  else begin
    (* Propagation: find a D-frontier gate (some input with definite
       good/faulty difference, output X in the faulty or good circuit) and
       require one of its X side-inputs to take a value enabling the
       difference to pass. *)
    let frontier = ref None in
    Array.iter
      (fun cg' ->
        if !frontier = None then begin
          let has_d =
            Array.exists
              (fun i ->
                match (st.good.(i), st.faulty.(i)) with
                | Logic.One, Logic.Zero | Logic.Zero, Logic.One -> true
                | _ -> false)
              cg'.Compiled.ins
          in
          let out_undecided =
            Logic.equal st.good.(cg'.Compiled.out) Logic.X
            || Logic.equal st.faulty.(cg'.Compiled.out) Logic.X
          in
          if has_d && out_undecided then frontier := Some cg'
        end)
      (Compiled.gates compiled);
    match !frontier with
    | None -> None
    | Some cg' ->
        (* Ask for any X side-input; try the non-controlling direction by
           preferring the value that keeps the gate sensitive.  Simple
           heuristic: request value 1 for AND-ish gates, 0 for OR-ish —
           approximated by the gate's output probability at p=0.5. *)
        let rec pick i =
          if i >= Array.length cg'.Compiled.ins then None
          else
            let net = cg'.Compiled.ins.(i) in
            if Logic.equal st.good.(net) Logic.X && Logic.equal st.faulty.(net) Logic.X then
              (* Non-controlling direction heuristic: AND-ish gates (low
                 ON-set density) want side inputs at 1, OR-ish at 0. *)
              let tt = cg'.Compiled.fn.Compiled.table in
              let density =
                float_of_int (Truth_table.count_true tt)
                /. float_of_int (Truth_table.n_rows tt)
              in
              Some (net, density < 0.5)
            else pick (i + 1)
        in
        pick 0
  end

(* Backtrace a (net, value) objective to an unassigned primary input. *)
let rec backtrace st net value =
  let compiled = st.u.Faultsim.compiled in
  if net < Compiled.n_inputs compiled then
    if Logic.equal st.pi.(net) Logic.X then Some (net, value) else None
  else
    match Netlist.gate_of_net (Compiled.netlist compiled) (Compiled.net_name compiled net) with
    | None -> None
    | Some g ->
        let cg = (Compiled.gates compiled).(g.Netlist.id) in
        let tt = cg.Compiled.fn.Compiled.table in
        let n = Array.length cg.Compiled.ins in
        let gins = Array.map (fun i -> st.good.(i)) cg.Compiled.ins in
        (* Find a row consistent with current values yielding [value];
           recurse into its first X input. *)
        let row = ref 0 and found = ref None in
        while !found = None && !row < 1 lsl n do
          let consistent =
            let ok = ref true in
            for i = 0 to n - 1 do
              match gins.(i) with
              | Logic.One -> if (!row lsr i) land 1 = 0 then ok := false
              | Logic.Zero -> if (!row lsr i) land 1 = 1 then ok := false
              | Logic.X -> ()
            done;
            !ok
          in
          if consistent && Truth_table.get tt !row = value then found := Some !row;
          incr row
        done;
        (match !found with
        | None -> None
        | Some row ->
            let rec pick i =
              if i >= n then None
              else if Logic.equal gins.(i) Logic.X then
                backtrace st cg.Compiled.ins.(i) ((row lsr i) land 1 = 1)
              else pick (i + 1)
            in
            pick 0)

(* --- Search -------------------------------------------------------------- *)

(* Backtracks before a search gives up as [Aborted]. *)
let max_backtracks = 1000

let generate u site =
  let compiled = u.Faultsim.compiled in
  let n_in = Compiled.n_inputs compiled in
  let n_nets = Compiled.n_nets compiled in
  let st =
    {
      u;
      site;
      pi = Array.make n_in Logic.X;
      good = Array.make n_nets Logic.X;
      faulty = Array.make n_nets Logic.X;
    }
  in
  let backtracks = ref 0 in
  simulate st;
  let rec search () =
    if detected st then begin
      (* Fill remaining X inputs with 0 (deterministic). *)
      Test (Array.map (fun v -> Logic.equal v Logic.One) st.pi)
    end
    else if not (still_possible st) then Untestable
    else
      match objective st with
      | None -> Untestable
      | Some (net, value) -> (
          match backtrace st net value with
          | None -> Untestable
          | Some (pi_idx, v) -> (
              st.pi.(pi_idx) <- Logic.of_bool v;
              simulate st;
              match search () with
              | Test _ as t -> t
              | Aborted -> Aborted
              | Untestable ->
                  incr backtracks;
                  if !backtracks > max_backtracks then Aborted
                  else begin
                    (* Flip the decision. *)
                    st.pi.(pi_idx) <- Logic.of_bool (not v);
                    simulate st;
                    match search () with
                    | Test _ as t -> t
                    | Aborted -> Aborted
                    | Untestable ->
                        st.pi.(pi_idx) <- Logic.X;
                        simulate st;
                        Untestable
                  end))
  in
  search ()

(* Generate a complete deterministic test set with fault dropping: each
   new test is fault-simulated against the remaining faults. *)
type set_result = {
  vectors : bool array array;
  per_site : result array;         (* indexed by site id *)
  covered_by_simulation : int;     (* faults dropped by simulation *)
}

let generate_set u =
  let n = Faultsim.n_sites u in
  let per_site = Array.make n Untestable in
  let covered = Array.make n false in
  let dropped = ref 0 in
  let vectors = ref [] in
  Array.iter
    (fun site ->
      if not covered.(site.Faultsim.sid) then begin
        let r = generate u site in
        per_site.(site.Faultsim.sid) <- r;
        match r with
        | Test v ->
            vectors := v :: !vectors;
            covered.(site.Faultsim.sid) <- true;
            (* Drop everything else this vector detects. *)
            Array.iter
              (fun other ->
                if (not covered.(other.Faultsim.sid)) && Faultsim.detects u other v then begin
                  covered.(other.Faultsim.sid) <- true;
                  incr dropped;
                  per_site.(other.Faultsim.sid) <- Test v
                end)
              u.Faultsim.sites
        | Untestable | Aborted -> ()
      end)
    u.Faultsim.sites;
  { vectors = Array.of_list (List.rev !vectors); per_site; covered_by_simulation = !dropped }

(* Assumption A2: apply the deterministic test set exactly twice (the
   paper's prescription for charging and discharging every node). *)
let schedule_double (vectors : bool array array) = Array.append vectors vectors

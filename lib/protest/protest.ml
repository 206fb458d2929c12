open Dynmos_util
open Dynmos_netlist
open Dynmos_sim
open Dynmos_faultsim

(* The PROTEST tool facade (Fig. 8).

   "For combinational networks PROTEST determines: signal probabilities,
   fault detection probabilities, the necessary test length for a demanded
   confidence, optimized input signal probabilities; random patterns with
   the proposed distributions are created; a static fault simulation
   validates the predictions."

   [analyze] runs the full pipeline over a netlist whose fault universe is
   generated from the technology-dependent fault libraries (Section 5) —
   the integration the paper's title is about. *)

type fault_report = {
  site : Faultsim.site;
  label : string;
  estimated : float;   (* estimated detection probability *)
  exact : float option; (* exact, when the circuit is small enough *)
}

type report = {
  netlist : Netlist.t;
  universe : Faultsim.universe;
  pi_weights : float array;
  signal_probs : (string * float) array;   (* estimated, per net *)
  faults : fault_report array;
  test_length : int option;                (* None: some fault undetectable *)
  confidence : float;
  optimization : Optimize.result option;
}

(* Exact detection probabilities up to this many primary inputs. *)
let exact_limit = 14

let analyze ?electrical ?(confidence = 0.999) ?(optimize = false)
    ?(pi_weights : float array option) netlist =
  let u = Faultsim.universe ?electrical netlist in
  let compiled = u.Faultsim.compiled in
  let n_in = Compiled.n_inputs compiled in
  let pi_weights = match pi_weights with Some w -> w | None -> Array.make n_in 0.5 in
  let signal = Signal_prob.propagate compiled ~pi_weights in
  let signal_probs =
    Array.init (Compiled.n_nets compiled) (fun i -> (Compiled.net_name compiled i, signal.(i)))
  in
  let estimated = Detect_prob.estimate u ~pi_weights in
  let exact = if n_in <= exact_limit then Some (Detect_prob.exact u ~pi_weights) else None in
  let faults =
    Array.map
      (fun site ->
        {
          site;
          label = Faultsim.site_label u site;
          estimated = estimated.(site.Faultsim.sid);
          exact = Option.map (fun e -> e.(site.Faultsim.sid)) exact;
        })
      u.Faultsim.sites
  in
  let working = match exact with Some e -> e | None -> estimated in
  let test_length =
    match Test_length.required_length ~confidence working with
    | n -> Some n
    | exception Test_length.Undetectable -> None
  in
  let optimization =
    if optimize then
      let objective = if n_in <= exact_limit then Optimize.Exact else Optimize.Estimated in
      Some (Optimize.run ~objective ~confidence u)
    else None
  in
  { netlist; universe = u; pi_weights; signal_probs; faults; test_length; confidence; optimization }

(* Random patterns with the proposed distributions (feature 5). *)
let patterns ?(seed = 1) report ~count =
  let weights =
    match report.optimization with
    | Some o -> o.Optimize.optimized_weights
    | None -> report.pi_weights
  in
  Faultsim.random_patterns ~weights (Prng.create seed)
    ~n_inputs:(Compiled.n_inputs report.universe.Faultsim.compiled)
    ~count

(* Static fault simulation validating the predictions (feature 6): run the
   generated patterns and compare achieved coverage with the predicted
   confidence. *)
type validation = {
  applied : int;
  summary : Faultsim.summary;
  achieved_coverage : float;
  predicted_confidence : float;
}

(* The test length actually proposed: the optimized one when the
   optimization ran (its patterns come from the optimized weights too). *)
let proposed_length report =
  match report.optimization with
  | Some { Optimize.optimized_length = Some n; _ } -> Some n
  | Some { Optimize.optimized_length = None; _ } | None -> report.test_length

let validate ?(seed = 1) report =
  match proposed_length report with
  | None ->
      let summary = Faultsim.run_ppsfp report.universe [||] in
      {
        applied = 0;
        summary;
        achieved_coverage = Faultsim.coverage summary;
        predicted_confidence = 0.0;
      }
  | Some n ->
      let pats = patterns ~seed report ~count:n in
      let summary = Faultsim.run_ppsfp report.universe pats in
      (* Predict with the detection probabilities under the weights the
         patterns were actually drawn from. *)
      let weights =
        match report.optimization with
        | Some o -> o.Optimize.optimized_weights
        | None -> report.pi_weights
      in
      let n_in = Compiled.n_inputs report.universe.Faultsim.compiled in
      let working =
        if n_in <= 14 then Detect_prob.exact report.universe ~pi_weights:weights
        else Detect_prob.estimate report.universe ~pi_weights:weights
      in
      {
        applied = n;
        summary;
        achieved_coverage = Faultsim.coverage summary;
        predicted_confidence = Test_length.confidence ~n working;
      }

let pp_report ppf r =
  Fmt.pf ppf "PROTEST report for %s@." (Netlist.name r.netlist);
  Fmt.pf ppf "  gates: %d  nets: %d  fault sites: %d@." (Netlist.n_gates r.netlist)
    (Compiled.n_nets r.universe.Faultsim.compiled)
    (Faultsim.n_sites r.universe);
  Fmt.pf ppf "  demanded confidence: %g@." r.confidence;
  (match r.test_length with
  | Some n -> Fmt.pf ppf "  necessary test length: %d@." n
  | None -> Fmt.pf ppf "  necessary test length: unbounded (undetectable fault present)@.");
  (match r.optimization with
  | Some o ->
      Fmt.pf ppf "  optimized weights: [%a]@."
        Fmt.(array ~sep:(any "; ") (fmt "%.2f"))
        o.Optimize.optimized_weights;
      (match (o.Optimize.initial_length, o.Optimize.optimized_length) with
      | Some a, Some b ->
          Fmt.pf ppf "  test length %d -> %d (x%.1f shorter)@." a b
            (float_of_int a /. float_of_int (max 1 b))
      | _ -> ())
  | None -> ());
  let hardest =
    Array.fold_left
      (fun acc f -> match acc with Some g when g.estimated <= f.estimated -> acc | _ -> Some f)
      None r.faults
  in
  match hardest with
  | Some f -> Fmt.pf ppf "  hardest fault: %s (p ~ %.2e)@." f.label f.estimated
  | None -> ()

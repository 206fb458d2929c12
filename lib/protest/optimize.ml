open Dynmos_faultsim

(* Optimized input signal probabilities (PROTEST feature 4, Fig. 8).

   "For each primary input a specific signal probability is computed,
   promising an increase of fault detection and a decrease of the
   necessary test length ... the necessary test length can be reduced by
   orders of magnitudes."

   The objective is the test length required for the demanded confidence,
   computed from estimated (or exact, on small circuits) detection
   probabilities.  The search is cyclic coordinate descent with a grid
   over each input's probability — simple, derivative-free, deterministic,
   and faithful to the published tool's spirit.  To keep the objective
   finite when some fault has (estimated) zero detection probability we
   maximize the minimum detection probability first, then minimize the
   length. *)

type objective = Estimated | Exact

let detection u ~objective ~pi_weights =
  match objective with
  | Estimated -> Detect_prob.estimate u ~pi_weights
  | Exact -> Detect_prob.exact u ~pi_weights

(* Lexicographic cost: first get every fault detectable, then shorten the
   test.  Smaller is better. *)
let cost u ~objective ~confidence ~pi_weights =
  let probs = detection u ~objective ~pi_weights in
  let p_min = Array.fold_left Float.min 1.0 probs in
  if p_min <= 1e-12 then (1, -.p_min)
  else (0, float_of_int (Test_length.required_length ~confidence probs))

(* The candidate probabilities of each input, and the most sweeps over
   all inputs. *)
let grid = [ 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95 ]
let max_passes = 8

let optimize ?(objective = Estimated) ~confidence (u : Faultsim.universe) initial =
  let n = Array.length initial in
  let weights = Array.copy initial in
  let best_cost = ref (cost u ~objective ~confidence ~pi_weights:weights) in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    for i = 0 to n - 1 do
      let original = weights.(i) in
      let best_here = ref original in
      List.iter
        (fun cand ->
          if cand <> original then begin
            weights.(i) <- cand;
            let c = cost u ~objective ~confidence ~pi_weights:weights in
            if c < !best_cost then begin
              best_cost := c;
              best_here := cand;
              improved := true
            end
          end)
        grid;
      weights.(i) <- !best_here
    done
  done;
  weights

(* Convenience: uniform starting point and before/after lengths. *)
type result = {
  initial_weights : float array;
  optimized_weights : float array;
  initial_length : int option;   (* None: some fault unreachable at p=0.5 *)
  optimized_length : int option;
  reduction : float option;      (* initial / optimized *)
}

let length_opt u ~objective ~confidence ~pi_weights =
  match Test_length.required_length ~confidence (detection u ~objective ~pi_weights) with
  | n -> Some n
  | exception Test_length.Undetectable -> None

let run ?(objective = Estimated) ~confidence u =
  let n = Dynmos_sim.Compiled.n_inputs u.Faultsim.compiled in
  let initial = Array.make n 0.5 in
  let optimized = optimize ~objective ~confidence u initial in
  let initial_length = length_opt u ~objective ~confidence ~pi_weights:initial in
  let optimized_length = length_opt u ~objective ~confidence ~pi_weights:optimized in
  let reduction =
    match (initial_length, optimized_length) with
    | Some a, Some b when b > 0 -> Some (float_of_int a /. float_of_int b)
    | _ -> None
  in
  { initial_weights = initial; optimized_weights = optimized; initial_length; optimized_length; reduction }

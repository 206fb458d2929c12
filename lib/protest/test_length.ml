(* Necessary random-test length (PROTEST feature 3, Fig. 8).

   The user specifies the demanded confidence c that *all* faults are
   detected; with per-fault detection probabilities p_f and independent
   patterns, the probability that N patterns detect every fault is
   (under fault independence)  prod_f (1 - (1-p_f)^N) >= c.
   [required_length] solves for the minimal N (monotone bisection);
   [required_length_worst] is the closed-form single-fault bound the
   PROTEST papers use, driven by the hardest fault:
   N = ln(1 - c^(1/m)) / ln(1 - p_min). *)

let clamp p = Float.min 1.0 (Float.max 0.0 p)

let confidence ~n detection_probs =
  Array.fold_left
    (fun acc p ->
      let p = clamp p in
      if p >= 1.0 then acc
      else if p <= 0.0 then 0.0
      else acc *. (1.0 -. (((1.0 -. p) ** float_of_int n) : float)))
    1.0 detection_probs

exception Undetectable

(* Past this length a fault counts as undetectable. *)
let max_length = 1 lsl 40

let required_length ~confidence:c detection_probs =
  if not (c > 0.0 && c < 1.0) then invalid_arg "Test_length: confidence must be in (0,1)";
  if Array.exists (fun p -> clamp p <= 0.0) detection_probs then raise Undetectable;
  if Array.length detection_probs = 0 then 0
  else begin
    (* Exponential search then bisection on the monotone confidence. *)
    let ok n = confidence ~n detection_probs >= c in
    let rec grow n = if ok n then n else if n >= max_length then raise Undetectable else grow (n * 2) in
    let hi = grow 1 in
    let rec bisect lo hi =
      (* invariant: not (ok lo) (for lo >= 1), ok hi *)
      if hi - lo <= 1 then hi
      else
        let mid = lo + ((hi - lo) / 2) in
        if ok mid then bisect lo mid else bisect mid hi
    in
    if hi = 1 then if ok 0 then 0 else 1 else bisect (hi / 2) hi
  end

let required_length_worst ~confidence:c detection_probs =
  if not (c > 0.0 && c < 1.0) then invalid_arg "Test_length: confidence must be in (0,1)";
  let m = Array.length detection_probs in
  if m = 0 then 0
  else begin
    let p_min = Array.fold_left Float.min 1.0 (Array.map clamp detection_probs) in
    if p_min <= 0.0 then raise Undetectable;
    let per_fault = c ** (1.0 /. float_of_int m) in
    int_of_float (Float.ceil (log (1.0 -. per_fault) /. log (1.0 -. p_min)))
  end

(* Expected number of patterns until a single fault of detection
   probability p is first detected (geometric distribution). *)
let expected_first_detection p =
  let p = clamp p in
  if p <= 0.0 then infinity else 1.0 /. p

(* The escape probability after N patterns: P(some fault undetected). *)
let escape ~n detection_probs = 1.0 -. confidence ~n detection_probs

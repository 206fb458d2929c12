(* Nonlinear feedback shift registers (Kunzmann & Wunderlich, the paper's
   reference [11]: "Design automation of random testable circuits").

   The feedback is an XOR of AND terms over register bits.  Two uses:

   - weighted pattern sources: the bit streams of products of register
     stages have 1-densities of 2^-k, which is how non-0.5 input signal
     probabilities are realized in hardware;
   - guaranteed-cycle generators: [with_zero_state] inserts the all-zero
     state into a maximal LFSR cycle (the classic de-Bruijn modification
     feedback' = feedback XOR AND(not bits[0..w-2])), giving period 2^w. *)

type term = int list  (* AND of these bit positions *)

type t = {
  width : int;
  terms : term list;         (* feedback = XOR over terms *)
  de_bruijn : bool;
  mutable state : int;
}

let bit state i = (state lsr i) land 1 = 1

let create ?(de_bruijn = false) ~width ~terms ?(seed = 1) () =
  if width < 2 || width > 32 then invalid_arg "Nlfsr: width in 2..32";
  List.iter
    (List.iter (fun i -> if i < 0 || i >= width then invalid_arg "Nlfsr: term bit out of range"))
    terms;
  { width; terms; de_bruijn; state = seed land ((1 lsl width) - 1) }

(* A maximal LFSR feedback expressed as degenerate (single-bit) terms. *)
let of_lfsr ?(de_bruijn = false) ?(seed = 1) width =
  let taps = Lfsr.taps_for width in
  let terms = ref [] in
  for i = width - 1 downto 0 do
    if taps land (1 lsl i) <> 0 then terms := [ i ] :: !terms
  done;
  create ~de_bruijn ~width ~terms:!terms ~seed ()

let state t = t.state
let set_state t s = t.state <- s land ((1 lsl t.width) - 1)

let feedback t =
  let term_value term = List.for_all (bit t.state) term in
  let linear = List.fold_left (fun acc term -> acc <> term_value term) false t.terms in
  if t.de_bruijn then begin
    (* XOR with NOR of bits 0..width-2: joins the all-zero state into the
       maximal cycle, making the period exactly 2^width. *)
    let low_zero =
      let rec go i = i > t.width - 2 || ((not (bit t.state i)) && go (i + 1)) in
      go 0
    in
    linear <> low_zero
  end
  else linear

(* Left shift with the feedback entering at bit 0 — the same convention as
   the Fibonacci LFSR, so [of_lfsr] reproduces its sequence exactly. *)
let step t =
  let out = bit t.state 0 in
  let fb = feedback t in
  t.state <- ((t.state lsl 1) lor (if fb then 1 else 0)) land ((1 lsl t.width) - 1);
  out

let bits t n =
  if n > t.width then invalid_arg "Nlfsr.bits: more bits than width";
  Array.init n (fun i -> bit t.state i)

let next_pattern t n =
  let p = bits t n in
  ignore (step t);
  p

let period t =
  let start = t.state in
  let copy = { t with state = start } in
  let limit = 1 lsl t.width in
  let rec go n =
    ignore (step copy);
    if copy.state = start then Some n else if n > limit then None else go (n + 1)
  in
  go 1

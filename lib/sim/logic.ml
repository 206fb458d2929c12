(* Three-valued logic for gate-level simulation. *)

type v = Zero | One | X

let of_bool b = if b then One else Zero

let to_bool = function Zero -> Some false | One -> Some true | X -> None

let equal a b =
  match (a, b) with Zero, Zero | One, One | X, X -> true | _, _ -> false

let to_char = function Zero -> '0' | One -> '1' | X -> 'X'

let pp ppf v = Fmt.char ppf (to_char v)

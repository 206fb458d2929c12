(** Three-valued logic for gate-level simulation. *)

type v = Zero | One | X

val of_bool : bool -> v
val to_bool : v -> bool option
val equal : v -> v -> bool
val to_char : v -> char
val pp : v Fmt.t

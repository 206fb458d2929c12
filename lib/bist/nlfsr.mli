(** Nonlinear feedback shift registers (the paper's reference [11]):
    feedback is an XOR of AND terms over register bits, optionally with
    the de-Bruijn modification that joins the all-zero state into the
    cycle (period exactly [2^width]). *)

type term = int list
(** AND of these bit positions. *)

type t

val create : ?de_bruijn:bool -> width:int -> terms:term list -> ?seed:int -> unit -> t
(** @raise Invalid_argument on out-of-range widths or term bits. *)

val of_lfsr : ?de_bruijn:bool -> ?seed:int -> int -> t
(** The maximal LFSR of that width expressed as degenerate terms —
    with [~de_bruijn:true] a period-[2^width] generator. *)

val state : t -> int
val set_state : t -> int -> unit

val step : t -> bool
(** Advance one clock; returns the serial output bit. *)

val bits : t -> int -> bool array
val next_pattern : t -> int -> bool array

val period : t -> int option
(** Exact cycle length from the current state ([None] if the state is not
    on a cycle through itself). *)

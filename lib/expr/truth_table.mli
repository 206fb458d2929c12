(** Dense truth tables over an explicit variable ordering.

    Variable [vars.(i)] is bit [i] of the row index (variable 0 is the least
    significant bit).  Tables are the semantic workhorse for cell-sized
    functions: equality, ON-set counting, weighted signal probability and
    fault-detection probability are linear scans over at most [2^max_vars]
    rows. *)

type t

exception Too_many_vars of int

val max_vars : int
(** Upper bound on the number of variables (22). *)

val create : string array -> (int -> bool) -> t
(** [create vars f] tabulates [f] over all [2^n] row indices.
    @raise Too_many_vars if the arity exceeds {!max_vars}
    @raise Invalid_argument on duplicate variable names *)

val of_expr : ?vars:string array -> Expr.t -> t
(** Tabulate an expression.  When [vars] is omitted, the expression's sorted
    support is used.  When given, it must contain every free variable. *)

val vars : t -> string array
val n_vars : t -> int
val n_rows : t -> int

val get : t -> int -> bool
(** Value at a row index. *)

val equal : t -> t -> bool
(** Same ordering and same function. *)

val equal_exprs : ?vars:string array -> Expr.t -> Expr.t -> bool
(** Semantic equality of two expressions over the union of their supports
    (or over [vars] when provided). *)

val count_true : t -> int
(** ON-set size. *)

val is_const : t -> bool option
(** [Some b] if the function is constantly [b]. *)

val minterms : t -> int list
(** Ascending list of ON-set row indices. *)

val xor_tables : t -> t -> t
val and_tables : t -> t -> t
val or_tables : t -> t -> t
val not_table : t -> t

val prob : ?weights:float array -> t -> float
(** Probability that the function is true when input [i] is 1 independently
    with probability [weights.(i)] (default 0.5 each).  Exact. *)

val detection_prob : ?weights:float array -> good:t -> faulty:t -> unit -> float
(** Probability that a random vector distinguishes [good] from [faulty]:
    the weighted measure of the XOR of the two tables. *)

val pp : t Fmt.t
(** Multi-line tabular dump (for debugging and small demos). *)

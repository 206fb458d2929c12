(** Necessary random-test length (PROTEST Fig. 8, feature 3).

    With per-fault detection probabilities [p_f] and independent patterns,
    N patterns detect every fault with probability
    [prod_f (1 - (1-p_f)^N)]. *)

exception Undetectable
(** Raised when some fault has detection probability 0 (no finite test
    length reaches the demanded confidence). *)

val confidence : n:int -> float array -> float
(** Probability that [n] random patterns detect all faults. *)

val required_length : confidence:float -> float array -> int
(** Minimal [n] reaching the demanded confidence (exact bisection).
    @raise Undetectable on zero-probability faults, or when [n] would
    exceed 2^40
    @raise Invalid_argument unless confidence is in (0,1) *)

val required_length_worst : confidence:float -> float array -> int
(** Closed-form bound driven by the hardest fault:
    [ln(1 - c^(1/m)) / ln(1 - p_min)]. *)

val expected_first_detection : float -> float
(** Mean patterns to first detection (geometric). *)

val escape : n:int -> float array -> float
(** Probability some fault escapes [n] patterns. *)

(** Campaign outcomes: did a fault-simulation run finish, and if not, why.

    Robust campaigns never throw partial work away: a run stopped by a
    deadline, an evaluation budget, a cooperative interrupt or repeatedly
    crashing fault-site jobs returns [Partial] alongside every detection
    gathered so far, instead of raising. *)

type stop_cause =
  | Deadline     (** the [?deadline] wall-clock limit passed *)
  | Max_evals    (** the [?max_evals] evaluation budget ran out *)
  | Interrupted  (** the [?interrupt] callback asked for a stop *)

type partial = {
  stopped : stop_cause option;
      (** why the sweep stopped early, if it did *)
  failed_sites : (int * string) list;
      (** sites whose evaluation kept raising after bounded retries:
          (site id, exception message).  Their detections are unknown;
          every other site's detections are identical to a clean run. *)
}

type t = Complete | Partial of partial

val is_complete : t -> bool

val make : ?stopped:stop_cause -> ?failed_sites:(int * string) list -> unit -> t
(** [Complete] when nothing stopped early and nothing failed; [Partial]
    otherwise. *)

val stop_cause_name : stop_cause -> string
(** ["deadline"] / ["max_evals"] / ["interrupted"], as used in obs
    events. *)

val to_string : t -> string

val exit_code : t -> int
(** CLI convention: 0 for [Complete], 2 for [Partial]. *)

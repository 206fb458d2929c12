open Dynmos_expr
open Dynmos_cell

(** Technology-dependent mapping from physical faults to logical effects —
    the executable form of the paper's Section-3 case analysis.

    For dynamic nMOS and domino CMOS every fault of the common physical
    model maps to {!Combinational} or {!Delay}, never {!Sequential} (the
    paper's central result).  Static CMOS stuck-open faults map to
    {!Sequential} — the Fig. 1 problem dynamic logic avoids. *)

type electrical = {
  r_precharge : float;
  r_evaluate : float;
  r_inverter_p : float;
  r_inverter_n : float;
  strong_ratio : float;
      (** a stuck-closed device wins its ratioed fight (hard logic fault)
          when its resistance is below [strong_ratio] × the opposing
          path's resistance *)
  delay_factor : float;  (** slow-down assigned to ratioed delay faults *)
}

val default_electrical : electrical
(** Strong restoring devices: every ratioed fight resolves to the hard
    logic fault (the paper's case a; reproduces the Section-5 table). *)

val weak_electrical : electrical
(** Weak restoring devices: stuck-closed precharge/inverter devices lose
    the fight and become delay faults (case b, max-speed testing). *)

type logical =
  | Combinational of Expr.t
      (** the faulty cell computes this combinational function *)
  | Delay of { observed_as : Expr.t option; factor : float }
      (** performance degradation; [observed_as] is the function seen at
          maximum-speed sampling ([None]: possibly undetectable, CMOS-1) *)
  | Sequential of { retain_when : Expr.t }
      (** static CMOS stuck-open: the output retains its previous value
          whenever [retain_when] holds *)
  | Contention of { fight_when : Expr.t; resolves_to : Expr.t; factor : float }
      (** both networks conduct on [fight_when]; the ratioed fight resolves
          to [resolves_to] with degraded timing (the Fig. 2 inverter) *)

val map : ?electrical:electrical -> Cell.t -> Fault.physical -> logical
(** The Section-3 case analysis.  @raise Invalid_argument when the fault
    does not apply to the cell's technology. *)

val never_sequential : Cell.t -> bool
(** Claim 2 as a decidable check: the cell is of a dynamic technology and
    none of its physical faults maps to {!Sequential}. *)

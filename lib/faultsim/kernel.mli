(** The driver/kernel interface of the unified campaign driver.

    A kernel is one way of evaluating the fault universe over a span of
    patterns: the event-driven injection kernel behind both public
    entry points (one pattern or a 62-pattern word per unit, on one
    domain or split across several), or a test oracle.  It owns only the
    evaluation mechanics;
    every campaign policy — limits, checkpointing, obs accounting, fault
    dropping, supervision/retry and the all-detected early exit — lives
    in {!Campaign.run_patterns}, which drives the kernel one pattern
    unit at a time through the services exposed in {!ctx}. *)

type ctx = {
  drop : bool;  (** fault dropping on: skip sites whose [first] is set *)
  first : int option array;
      (** per-site first detection — read-only to kernels; write through
          {!field-detect} so the driver's drop/early-exit state stays
          consistent *)
  failed : bool array;
      (** sites excluded by supervision; kernels must skip them *)
  dropped : bool array;
      (** [drop] && detected (including checkpoint-preloaded
          detections) — a kernel that propagates all sites jointly
          (the test-side deductive oracle) reads this mid-unit *)
  work : int ref;
      (** gate-level work counter: kernels add every gate(-function)
          evaluation they perform; the driver feeds the deltas to the
          [max_evals] budget gauge at unit boundaries *)
  detect : sid:int -> pat:int -> unit;
      (** record a detection (idempotent: only the first call per site
          sticks); maintains the undetected count and [dropped] *)
  supervise : sid:int -> restore:(unit -> unit) -> (unit -> int) -> int option;
      (** run one site evaluation under the driver's bounded-retry
          supervision: the crash hook fires before each attempt,
          [restore] repairs the evaluating domain's scratch state after
          an exception, and a persistently-raising site is marked
          [failed] and reported — [None] — instead of killing the
          campaign.  Safe to call from helper domains during
          [run_unit], as long as no two domains evaluate the same site
          in one unit; every other service here is the calling
          domain's alone. *)
}

type totals = {
  evals : int;        (** driver-counted kernel evaluations (site x unit) *)
  evals_saved : int;  (** evaluations skipped by dropping / early exit *)
  work : int;         (** final gate-level work counter *)
}
(** The driver's per-run accounting, handed to {!field-obs_fields} so a
    kernel can derive its extra obs fields from the unified totals. *)

type t = {
  name : string;  (** engine name used in obs events and checkpoint modes *)
  unit_len : start:int -> int;
      (** patterns consumed by the unit beginning at [start] (1 for the
          single-pattern engines; up to a word for bit-parallel) *)
  units_remaining : start:int -> int;
      (** units left from [start] — the early-exit saved accounting *)
  run_unit : ctx -> start:int -> len:int -> unit;
      (** evaluate every live site over patterns [start, start+len) *)
  obs_fields : totals -> (string * Dynmos_obs.Obs.value) list;
      (** kernel-specific obs fields (gate-eval breakdowns, domain
          counts), appended to the driver's standard fields *)
}

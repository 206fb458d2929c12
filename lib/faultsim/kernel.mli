(** The driver/kernel interface of the unified campaign driver.

    A kernel is one way of evaluating the fault universe over a span of
    patterns: the event-driven injection kernel behind both public
    entry points (one pattern or a 62-pattern word per unit, on one
    domain or split across several), or a test oracle.  It owns only the
    evaluation mechanics;
    every campaign policy — limits, checkpointing, counters, fault
    dropping, supervision/retry and the all-detected early exit — lives
    in {!Campaign.run_patterns}, which drives the kernel one pattern
    unit at a time through the services exposed in {!ctx}. *)

type ctx = {
  drop : bool;  (** fault dropping on: skip sites whose [first] is set *)
  first : int option array;
      (** per-site first detection — read-only to kernels; write through
          {!field-detect} so the driver's drop/early-exit state stays
          consistent.  A kernel that propagates all sites jointly (the
          test-side deductive oracle) reads it mid-unit. *)
  failed : bool array;
      (** sites excluded by supervision; kernels must skip them *)
  work : int ref;
      (** gate-level work counter: kernels add every gate(-function)
          evaluation they perform; the driver feeds the deltas to the
          [max_evals] budget gauge at unit boundaries *)
  detect : sid:int -> pat:int -> unit;
      (** record a detection (idempotent: only the first call per site
          sticks); maintains the undetected count *)
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

type t = {
  name : string;  (** engine name used in obs events and checkpoint modes *)
  unit_bits : int;
      (** patterns per unit (1 for serial, a word for ppsfp); the last
          unit takes what is left *)
  gates : int;
      (** gate evaluations of one whole-circuit sweep: the baseline of
          the driver's [gate_evals_saved] *)
  requested_domains : int;
  effective_domains : int;  (** domains asked for, and those that started *)
  run_unit : ctx -> start:int -> len:int -> unit;
      (** evaluate every live site over patterns [start, start+len),
          after one good-machine sweep of the unit *)
}

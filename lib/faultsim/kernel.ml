(* Driver/kernel interface types of the unified campaign driver; see
   kernel.mli.  Pure data — the driver logic is in campaign.ml and the
   kernel implementations in faultsim.ml. *)

type ctx = {
  drop : bool;
  first : int option array;
  failed : bool array;
  work : int ref;
  detect : sid:int -> pat:int -> unit;
  supervise : sid:int -> restore:(unit -> unit) -> (unit -> int) -> int option;
}

type t = {
  name : string;
  unit_bits : int;
  gates : int;
  requested_domains : int;
  effective_domains : int;
  run_unit : ctx -> start:int -> len:int -> unit;
}

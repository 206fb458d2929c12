(* Execution limits for fault-simulation campaigns.

   A campaign can be bounded three ways: a wall-clock deadline (absolute
   epoch seconds — the CLI converts a relative [--deadline SEC] before
   calling), a gate-evaluation budget, and a cooperative interrupt
   callback (the CLI's signal handler sets an [Atomic.t] flag the
   callback reads).  The campaign driver polls {!check} at pattern-unit
   boundaries and stops *cleanly* when it trips: the run returns
   [Outcome.Partial] with every detection gathered so far instead of
   raising.

   The counter and the tripped cause are [Atomic.t], so a gauge stays
   safe to share across domains: the first poll to observe a tripped
   limit publishes the cause with [compare_and_set] and every later poll
   sees it.  Polling order fixes the precedence when several limits trip
   in the same window: interrupt > deadline > max_evals. *)

type t = {
  deadline : float option;
  max_evals : int option;
  interrupt : (unit -> bool) option;
}

let none = { deadline = None; max_evals = None; interrupt = None }

let make ?deadline ?max_evals ?interrupt () =
  (match max_evals with
  | Some n when n < 1 ->
      invalid_arg (Printf.sprintf "Limits.make: max_evals must be >= 1 (got %d)" n)
  | _ -> ());
  { deadline; max_evals; interrupt }

let is_none l = l.deadline = None && l.max_evals = None && l.interrupt = None

type gauge = {
  limits : t;
  evals : int Atomic.t;
  cause : Outcome.stop_cause option Atomic.t;
}

let gauge limits = { limits; evals = Atomic.make 0; cause = Atomic.make None }

let add_evals g n =
  (* the counter only matters when a budget is set; skip the atomic
     traffic on unbounded runs *)
  if g.limits.max_evals <> None && n > 0 then ignore (Atomic.fetch_and_add g.evals n)

let evals g = Atomic.get g.evals
let stopped g = Atomic.get g.cause

let trip g cause = ignore (Atomic.compare_and_set g.cause None (Some cause))

let check g =
  match Atomic.get g.cause with
  | Some _ -> true
  | None ->
      (match g.limits.interrupt with
      | Some f when f () -> trip g Outcome.Interrupted
      | _ -> ());
      (if Atomic.get g.cause = None then
         match g.limits.deadline with
         | Some d when Unix.gettimeofday () >= d -> trip g Outcome.Deadline
         | _ -> ());
      (if Atomic.get g.cause = None then
         match g.limits.max_evals with
         | Some m when Atomic.get g.evals >= m -> trip g Outcome.Max_evals
         | _ -> ());
      Atomic.get g.cause <> None

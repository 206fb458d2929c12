(* Campaign outcomes.

   Every fault-simulation run now reports not just what it detected but
   whether it finished: a campaign cut short by a wall-clock deadline, an
   evaluation budget, a cooperative interrupt (Ctrl-C) or repeatedly
   crashing fault-site jobs returns [Partial] instead of raising — the
   detections gathered so far are always preserved.  [Complete] means
   every site saw every pattern (or was fault-dropped after its first
   detection, which is result-equivalent). *)

type stop_cause = Deadline | Max_evals | Interrupted

type partial = {
  stopped : stop_cause option;
  failed_sites : (int * string) list;
}

type t = Complete | Partial of partial

let stop_cause_name = function
  | Deadline -> "deadline"
  | Max_evals -> "max_evals"
  | Interrupted -> "interrupted"

let is_complete = function Complete -> true | Partial _ -> false

let make ?stopped ?(failed_sites = []) () =
  match (stopped, failed_sites) with
  | None, [] -> Complete
  | stopped, failed_sites -> Partial { stopped; failed_sites }

let to_string = function
  | Complete -> "complete"
  | Partial { stopped; failed_sites } ->
      let parts =
        (match stopped with Some c -> [ "stopped=" ^ stop_cause_name c ] | None -> [])
        @
        match failed_sites with
        | [] -> []
        | l -> [ Printf.sprintf "failed_sites=%d" (List.length l) ]
      in
      "partial(" ^ String.concat "," parts ^ ")"

(* CLI convention: 0 = complete campaign, 2 = partial results delivered.
   (130 — interrupted by SIGINT/SIGTERM — is decided by the CLI itself,
   which knows whether the stop came from a signal.) *)
let exit_code = function Complete -> 0 | Partial _ -> 2

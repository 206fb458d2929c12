(* The repo's benchmark (see README.md beside this file).

   perfbench --workload W --seed N --seconds S --trace 0|1

   Runs workload W with inputs generated from seed N, measures for S
   seconds, checks every timed op's output, prints each metric by name
   with its unit and sample counts, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
   end-to-end metrics, measured with tracing off; --trace 1 reports the
   per-layer metrics of a traced run, which also times the untraced loop
   so that the tracing overhead shows. *)

open Dynmos_server
open Measure

let workloads = [ "campaign-rand10k"; "serve-cached"; "serve-cold-durable" ]
let out_dir = "perfbench-out"

(* How far the traced loop's top-level spans may fall short of its wall
   time before the trace is reported as leaving time unaccounted for. *)
let coverage_tolerance = 0.05

let usage () =
  prerr_endline
    ("usage: perfbench --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let seed = int "seed" in
  let seconds = float_of_int (int "seconds") in
  let traced =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if not (List.mem workload workloads) || seconds <= 0. then usage ();
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let header =
    Json.to_string
      (Json.Obj
         ([ ("workload", Json.String workload); ("seed", Json.Int seed); ("trace", Json.Bool traced) ]
         @ host_facts ()))
  in
  print_endline header;
  let o =
    match workload with
    | "campaign-rand10k" -> Campaign_load.run ~out_dir ~seed ~seconds ~traced
    | _ -> Serve_load.run ~out_dir ~workload ~seed ~seconds ~traced
  in
  let print m =
    Printf.printf "  %-34s %14.6f %-5s %s\n" m.name m.value m.unit_ m.note
  in
  Printf.printf "end-to-end (tracing off):\n";
  List.iter print o.e2e;
  if traced then begin
    Printf.printf "per-layer (traced run):\n";
    List.iter print o.layers;
    List.iter
      (fun m ->
        if m.name = "trace.span_coverage" then
          Printf.printf "  top-level spans cover %.2f%% of the traced loop's wall time: %s\n"
            (m.value *. 100.)
            (if Float.abs (1. -. m.value) <= coverage_tolerance then "within the 5% tolerance"
             else "OUTSIDE the 5% tolerance"))
      o.layers;
    let path = Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.jsonl" workload seed) in
    Trace.write o.trace ~header path;
    Printf.printf "  spans written to %s\n" path
  end;
  let reported = if traced then o.layers else o.e2e in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (o.checks_ok && o.failed = 0));
        ("attempted", Json.Int o.attempted);
        ("failed", Json.Int o.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
               reported) );
      ]
  in
  print_string (Json.to_string result ^ "\n")

(* Timing, order statistics, the in-memory span trace, process memory and
   host facts shared by every workload. *)

let now = Dynmos_obs.Obs.now

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Median of a sample; [nan] for an empty one, so a missing sample can
   never pass for a measurement. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile [p] in (0, 1], with the number of samples
   ranked strictly above it: a percentile is resolved only when ten or
   more samples lie beyond it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0)
  else
    let rank = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n)))) in
    (a.(rank - 1), n - rank)

(* [time f] runs [f] once and returns its result with the elapsed
   seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Median seconds per call of [f] over [reps] back-to-back calls. *)
let median_time ~reps f =
  median
    (List.init reps (fun _ ->
         let (_ : _), dt = time f in
         dt))

(* --- Spans ----------------------------------------------------------------- *)

(* Spans recorded by the benchmark around its calls into the program's
   public entry points.  They live in memory and are written once at
   exit; a disabled trace costs one branch per call site.  [parent] is
   the span that caused this one (0 = top level); the spans of one
   request share its top-level span as ancestor. *)
module Trace = struct
  type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

  type t = { on : bool; m : Mutex.t; mutable spans : span list; next : int Atomic.t }

  let create on = { on; m = Mutex.create (); spans = []; next = Atomic.make 1 }
  let on t = t.on
  let fresh t = Atomic.fetch_and_add t.next 1

  let record t ~id ~parent ~name ~t0 ~t1 =
    if t.on then begin
      Mutex.lock t.m;
      t.spans <- { id; parent; name; t0; t1 } :: t.spans;
      Mutex.unlock t.m
    end

  (* [span t ~parent name f] runs [f id] inside a span named [name]. *)
  let span t ?(parent = 0) name f =
    if not t.on then f 0
    else
      let id = fresh t in
      let t0 = now () in
      let r = f id in
      record t ~id ~parent ~name ~t0 ~t1:(now ());
      r

  let spans t =
    Mutex.lock t.m;
    let s = List.rev t.spans in
    Mutex.unlock t.m;
    s

  (* Durations in seconds of every span named [name]. *)
  let durations t name =
    List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) (spans t)

  (* Seconds covered by top-level spans lying within [t0, t1]. *)
  let top_level_within t ~t0 ~t1 =
    List.fold_left
      (fun acc s -> if s.parent = 0 && s.t0 >= t0 && s.t1 <= t1 then acc +. (s.t1 -. s.t0) else acc)
      0. (spans t)

  (* One JSON line per span, after a [header] line (the run's host
     facts). *)
  let write t ~header path =
    let oc = open_out path in
    output_string oc (header ^ "\n");
    List.iter
      (fun s ->
        Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"name\":%S,\"t0\":%.6f,\"t1\":%.6f}\n" s.id
          s.parent s.name s.t0 s.t1)
      (spans t);
    close_out oc
end

(* --- Process and host facts ------------------------------------------------ *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* Value of a ["Key:   123 kB"] line of a /proc status-style file. *)
let proc_field path key =
  match read_file path with
  | exception Sys_error _ -> None
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             match String.index_opt l ':' with
             | Some i when String.trim (String.sub l 0 i) = key ->
                 Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
             | _ -> None)

(* Peak resident set of this process in MiB (Linux [VmHWM]); without
   /proc, the OCaml heap's peak is the closest figure available. *)
let peak_rss_mb () =
  match proc_field "/proc/self/status" "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> float_of_string kb /. 1024.
      | [] -> nan)
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let host_facts () =
  let cpu = Option.value ~default:"unknown" (proc_field "/proc/cpuinfo" "model name") in
  let kernel =
    match read_file "/proc/sys/kernel/osrelease" with
    | s -> String.trim s
    | exception Sys_error _ -> Sys.os_type
  in
  [
    ("nproc", Dynmos_server.Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Dynmos_server.Json.String Sys.ocaml_version);
    ("cpu", Dynmos_server.Json.String cpu);
    ("kernel", Dynmos_server.Json.String kernel);
  ]

(* --- Metric reporting ------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* The latency metrics of a sample of op durations (seconds): median
   and p90 in ms, each noted with its sample count and how many samples
   lie beyond it. *)
let latency_metrics durations =
  let n = List.length durations in
  let ms = List.map (fun d -> d *. 1000.) durations in
  let p50, b50 = percentile 0.5 ms in
  let p90, b90 = percentile 0.9 ms in
  let note ~tail beyond =
    Printf.sprintf "n=%d, %d beyond%s" n beyond
      (if tail && beyond < 10 then " (tail unresolved: fewer than 10 samples beyond)" else "")
  in
  [
    metric "latency_p50_ms" "ms" p50 ~note:(note ~tail:false b50);
    metric "latency_p90_ms" "ms" p90 ~note:(note ~tail:true b90);
  ]

(* What a workload run hands back: ops attempted and failed, whether the
   set-up-side checks held, the metrics of both kinds (per-layer ones
   only from a traced run) and the trace. *)
type outcome = {
  attempted : int;
  failed : int;
  checks_ok : bool;
  e2e : metric list;
  layers : metric list;
  trace : Trace.t;
}

open Dynmos_util
open Dynmos_cell
open Dynmos_faultsim
open Dynmos_circuits
module Obs = Dynmos_obs.Obs

(* Driver-level policy tests for the unified campaign driver.  Every
   engine is a thin kernel under [Campaign.run_patterns], so the
   policies tested here — limits precedence, checkpoint resume, the
   limited-run-is-a-prefix law — are properties of the one driver,
   exercised through several kernels to prove nothing leaks back into
   engine code. *)

let check = Alcotest.(check bool)

let fixture () =
  let nl =
    Generators.random_monotone ~seed:41 ~n_inputs:8 ~n_gates:30
      ~technology:Technology.Domino_cmos ()
  in
  let u = Faultsim.universe nl in
  let prng = Prng.create 43 in
  (u, Faultsim.random_patterns prng ~n_inputs:8 ~count:200)

type run =
  ?deadline:float ->
  ?max_evals:int ->
  ?interrupt:(unit -> bool) ->
  Faultsim.universe ->
  bool array array ->
  Faultsim.summary

let engines : (string * run) list =
  [
    ( "serial",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_serial ?deadline ?max_evals ?interrupt u pats );
    ( "parallel",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_parallel ?deadline ?max_evals ?interrupt u pats );
    ( "ppsfp",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_ppsfp ~group:5 ?deadline ?max_evals ?interrupt u pats );
    ( "domains",
      fun ?deadline ?max_evals ?interrupt u pats ->
        Faultsim.run_domain_parallel ~num_domains:2 ?deadline ?max_evals ?interrupt u pats );
  ]

let stop_cause (s : Faultsim.summary) =
  match s.Faultsim.outcome with
  | Outcome.Partial { Outcome.stopped = Some c; _ } -> Some c
  | _ -> None

(* --- Limits precedence -------------------------------------------------------- *)

(* When several limits trip in the same polling window the driver's
   gauge publishes exactly one cause, fixed by the polling order:
   interrupt > deadline > budget.  Each pair (and the triple) is pinned
   here on every engine — the precedence must not depend on which
   kernel the campaign runs. *)
let test_limits_precedence () =
  let u, pats = fixture () in
  let past = Unix.gettimeofday () -. 60.0 in
  let yes () = true in
  List.iter
    (fun (name, (run : run)) ->
      let cause ?deadline ?max_evals ?interrupt () =
        stop_cause (run ?deadline ?max_evals ?interrupt u pats)
      in
      check (name ^ ": interrupt beats deadline") true
        (cause ~interrupt:yes ~deadline:past () = Some Outcome.Interrupted);
      check (name ^ ": interrupt beats budget") true
        (cause ~interrupt:yes ~max_evals:1 () = Some Outcome.Interrupted);
      check (name ^ ": deadline beats budget") true
        (cause ~deadline:past ~max_evals:1 () = Some Outcome.Deadline);
      check (name ^ ": interrupt beats both") true
        (cause ~interrupt:yes ~deadline:past ~max_evals:1 ()
        = Some Outcome.Interrupted))
    engines

(* --- Checkpoint resume through the driver ------------------------------------- *)

(* Checkpoint write/preload lives only in the driver, so resuming must
   work identically through any kernel — here the deductive oracle's
   fault-list propagation kernel, which has no checkpoint code of its
   own.  One interrupted run + one resumed run must equal one
   uninterrupted run, bit for bit. *)
let test_checkpoint_resume_propagation_kernel () =
  let u, pats = fixture () in
  let reference = Deductive_oracle.run ~drop:false u pats in
  let path = Filename.temp_file "dynmos_campaign_ckpt" ".dat" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let ctl = Faultsim.checkpoint_ctl ~path ~interval:7 u pats in
      let s1 = Deductive_oracle.run ~drop:false ~max_evals:400 ~checkpoint:ctl u pats in
      check "first leg stopped" true (not (Outcome.is_complete s1.Faultsim.outcome));
      check "first leg left a checkpoint" true (Sys.file_exists path);
      let ctl2 = Faultsim.checkpoint_ctl ~path ~interval:7 ~resume:true u pats in
      let s2 = Deductive_oracle.run ~drop:false ~checkpoint:ctl2 u pats in
      check "resumed leg complete" true (Outcome.is_complete s2.Faultsim.outcome);
      check "combined = uninterrupted" true
        (s2.Faultsim.first_detection = reference.Faultsim.first_detection))

(* --- The prefix law ----------------------------------------------------------- *)

(* Any kernel under any limit combination yields a pattern-prefix of
   the unlimited run: a site is detected iff the unlimited run detects
   it within the first [patterns_done] patterns, at the same pattern.
   This is the strongest statement of "limits lose only the tail" and
   it holds exactly for every engine, the domains engine included,
   because the driver stops only at unit boundaries. *)
let qcheck_limited_is_prefix =
  QCheck2.Test.make ~name:"any kernel x limits is a prefix of the unlimited run"
    ~count:60
    QCheck2.Gen.(triple (int_range 0 3) (int_range 0 2) (int_range 1 60))
    (fun (engine_ix, limit_kind, scale) ->
      let u, pats = fixture () in
      let name, (run : run) = List.nth engines engine_ix in
      let reference = run u pats in
      let limited =
        match limit_kind with
        | 0 -> run ~max_evals:(scale * 500) u pats
        | 1 ->
            (* deterministic interrupt: trip after [scale] gauge polls *)
            let polls = ref 0 in
            run
              ~interrupt:(fun () ->
                incr polls;
                !polls > scale)
              u pats
        | _ ->
            (* both; precedence is covered elsewhere, here only the
               prefix shape matters *)
            let polls = ref 0 in
            run ~max_evals:(scale * 500)
              ~interrupt:(fun () ->
                incr polls;
                !polls > 2 * scale)
              u pats
      in
      let cut = limited.Faultsim.patterns_done in
      Array.for_all2
        (fun l r ->
          match (l, r) with
          | Some p, Some p' -> p = p' && p < cut
          | None, Some p -> p >= cut
          | None, None -> true
          | Some _, None ->
              QCheck2.Test.fail_reportf "%s: limited run invented a detection" name)
        limited.Faultsim.first_detection reference.Faultsim.first_detection)

(* The per-site reading of the prefix law, on a campaign large enough
   that the domains engine starts a helper domain (the fixture above
   runs on one) and, without dropping, splits every one of its ten
   units (about 21k gate evaluations each): each site of a limited run
   is reported exactly as in the unlimited run or, if the unlimited run
   detects it only past the cut, not at all, so a budget stop never
   loses or leaks part of a merged unit. *)
let split_fixture =
  lazy
    (let nl =
       Generators.random_monotone ~seed:47 ~n_inputs:16 ~n_gates:300
         ~technology:Technology.Domino_cmos ()
     in
     let u = Faultsim.universe nl in
     let pats = Faultsim.random_patterns (Prng.create 53) ~n_inputs:16 ~count:620 in
     (u, pats, Faultsim.run_domain_parallel ~drop:false ~num_domains:2 u pats))

let qcheck_limited_domains_is_site_subset =
  QCheck2.Test.make ~name:"limited domains run is a site-subset of the unlimited run"
    ~count:30
    QCheck2.Gen.(int_range 1 40)
    (fun scale ->
      let u, pats, reference = Lazy.force split_fixture in
      let sink, fetch = Obs.memory_sink () in
      let limited =
        Faultsim.run_domain_parallel ~drop:false ~num_domains:2 ~obs:(Obs.make sink)
          ~max_evals:(scale * 5000) u pats
      in
      let effective =
        List.find_map
          (fun e ->
            if e.Obs.ev <> "faultsim.run" then None
            else
              match List.assoc_opt "effective_domains" e.Obs.fields with
              | Some (Obs.Int n) -> Some n
              | _ -> None)
          (fetch ())
      in
      if effective <> Some 2 then
        QCheck2.Test.fail_reportf "expected 2 effective domains, got %s"
          (Option.fold ~none:"none" ~some:string_of_int effective);
      let cut = limited.Faultsim.patterns_done in
      Array.for_all2
        (fun l r ->
          match (l, r) with
          | Some _, _ -> l = r
          | None, Some p -> p >= cut
          | None, None -> true)
        limited.Faultsim.first_detection reference.Faultsim.first_detection)

let () =
  Alcotest.run "campaign"
    [
      ( "driver policies",
        [
          Alcotest.test_case "limits precedence matrix" `Quick test_limits_precedence;
          Alcotest.test_case "checkpoint resume through a propagation kernel" `Quick
            test_checkpoint_resume_propagation_kernel;
          QCheck_alcotest.to_alcotest qcheck_limited_is_prefix;
          QCheck_alcotest.to_alcotest qcheck_limited_domains_is_site_subset;
        ] );
    ]

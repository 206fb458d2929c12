(* The deductive fault simulator, kept as the test oracle every engine is
   checked against.

   The four library engines all inject a fault and propagate it event by
   event from its own gate ([Compiled.eval_fault_into]); an oracle
   sharing that code could share its bugs.  This one shares no
   evaluation code with it: one pass per pattern, each net carrying the
   set of fault sites whose presence would invert the net's good value
   (Armstrong's deductive method).  A gate's output list is computed by
   re-evaluating its function with the inputs inverted exactly on each
   fault's membership pattern — which handles multiple faulted inputs
   from reconvergent fan-out correctly — plus the gate's own local
   faults whose faulty function differs under the applied input vector.
   Every gate is processed on every pattern (no event-driven
   restriction).

   Campaign policies (dropping, limits, checkpoints, obs accounting) come
   from the same [Campaign.run_patterns] driver the library engines use,
   so the oracle's summaries are directly comparable, field for field. *)

open Dynmos_netlist
open Dynmos_sim
open Dynmos_faultsim
module Int_set = Set.Make (Int)

let kernel (u : Faultsim.universe) (patterns : bool array array) =
  let compiled = u.Faultsim.compiled in
  let n_nets = Compiled.n_nets compiled in
  let total = Array.length patterns in
  let is_po = Array.make n_nets false in
  Array.iter (fun p -> is_po.(p) <- true) (Compiled.po_indices compiled);
  (* local sites per gate id *)
  let local = Hashtbl.create 64 in
  Array.iter
    (fun site ->
      let k = site.Faultsim.gate.Netlist.id in
      Hashtbl.replace local k (site :: Option.value ~default:[] (Hashtbl.find_opt local k)))
    u.Faultsim.sites;
  let bits = Array.map (fun b -> if b then 1 else 0) in
  let run_unit (ctx : Kernel.ctx) ~start ~len:_ =
    let skip sid = ctx.Kernel.drop && ctx.Kernel.dropped.(sid) in
    let work = ctx.Kernel.work in
    let values = Compiled.eval_nets compiled patterns.(start) in
    let lists = Array.make n_nets Int_set.empty in
    Array.iter
      (fun cg ->
        let ins = cg.Compiled.ins in
        let in_vals = Array.map (fun i -> values.(i)) ins in
        let good_out = values.(cg.Compiled.out) in
        let candidates =
          Array.fold_left (fun acc i -> Int_set.union acc lists.(i)) Int_set.empty ins
        in
        let propagated =
          Int_set.filter
            (fun f ->
              (* a dropped site can still sit in upstream lists built
                 earlier this pattern; it propagates no further *)
              (not (skip f))
              &&
              (incr work;
               let flipped =
                 Array.mapi (fun k v -> if Int_set.mem f lists.(ins.(k)) then not v else v) in_vals
               in
               Compiled.eval_fn cg.Compiled.fn (bits flipped) land 1 = 1 <> good_out))
            candidates
        in
        let with_local =
          List.fold_left
            (fun acc site ->
              let sid = site.Faultsim.sid in
              if skip sid then acc
              else begin
                incr work;
                if Compiled.eval_fn site.Faultsim.fn (bits in_vals) land 1 = 1 <> good_out then
                  Int_set.add sid acc
                else acc
              end)
            propagated
            (Option.value ~default:[] (Hashtbl.find_opt local cg.Compiled.g.Netlist.id))
        in
        (* a fault reaching a primary-output net is detected; record it
           as soon as the driving gate is processed so dropping takes
           effect for the rest of this very pattern *)
        if is_po.(cg.Compiled.out) then
          Int_set.iter (fun f -> ctx.Kernel.detect ~sid:f ~pat:start) with_local;
        lists.(cg.Compiled.out) <- with_local)
      (Compiled.gates compiled)
  in
  {
    Kernel.name = "deductive";
    unit_len = (fun ~start:_ -> 1);
    units_remaining = (fun ~start -> total - start);
    run_unit;
    obs_fields = (fun (t : Kernel.totals) -> [ ("gate_evals", Dynmos_obs.Obs.Int t.Kernel.work) ]);
  }

let run ?drop ?obs ?deadline ?max_evals ?interrupt ?checkpoint u patterns =
  Campaign.run_patterns ?drop ?obs ?deadline ?max_evals ?interrupt ?checkpoint
    ~n_sites:(Faultsim.n_sites u) ~total:(Array.length patterns) (kernel u patterns)

open Dynmos_sim
module Obs = Dynmos_obs.Obs

(* PPSFP: parallel-pattern x parallel-fault simulation.

   The bit-parallel engine packs 62 patterns into one machine word but
   still walks fault sites one at a time, re-entering the cube-decode
   loop per site per gate.  This kernel adds the second parallel axis: a
   *group* of G fault machines is simulated together against one pattern
   word, with all mutable state in a flat (net x lane) Bigarray word
   matrix (Compiled.word_matrix).  One cube-cover decode per gate is
   amortized over the whole group and the lane loop is unit-stride, so
   the marginal cost of a machine-gate evaluation drops to a strided
   and/or/not — the memory-layout win the ROADMAP's "raw speed" item
   asks for.

   Per pattern unit the kernel:

   1. evaluates the good machine once into an ordinary scratch array;
   2. per group, *probes* each machine's own faulty gate as a scalar
      against the good values (a machine's inputs at its own gate are
      upstream of the fault, hence good) — when no lane is activated
      the whole group is done at G gate evaluations, the same dominant
      saving the bit-parallel cone kernel gets per site;
   3. otherwise broadcasts the group's frontier nets (cone inputs
      produced outside the union fanout cone) from the good scratch
      into the matrix and sweeps the union cone once in topological
      order with [Compiled.eval_fn_rows], substituting each machine's
      probed faulty word into its own lane at its own gate;
   4. diffs each lane against the good machine over the cone's
      primary-output gates; the lowest set bit of the masked diff is
      the first detecting pattern.

   Correctness: machine l's lane starts from good frontier values and
   is evaluated with true gate functions everywhere except its own
   gate, so by induction over the topological order it equals the good
   machine outside the fanout cone of its own fault and equals the
   whole-circuit faulty machine inside it.  The PO diff is therefore
   bit-identical to the bit-parallel engine's — the frozen fixtures and
   the QCheck differential pin this.

   Fault dropping compacts groups: retired sites (dropped or failed)
   are removed and the survivors regrouped at unit boundaries, but only
   when the retired count actually changed — group construction (union
   cones, frontiers) is the only allocating part of the kernel and is
   skipped while the live set is stable.  The kernel propagates each
   group jointly, so it exposes no per-site supervision. *)

type fsite = { sid : int; gate : int; fn : Compiled.gate_fn }

type group = {
  lanes : fsite array;   (* ascending sid => non-decreasing gate id *)
  cone : int array;      (* union fanout cone, ascending (= topological) gate ids *)
  cone_po : int array;   (* cone gates whose output net is a primary output *)
  frontier : int array;  (* net indices read by the cone but produced outside it *)
}

let word_bits = 62

let default_group = 16

let kernel ?(group = default_group) ?trace_site compiled (sites : fsite array)
    (patterns : bool array array) =
  if group < 1 then
    invalid_arg (Fmt.str "Ppsfp.kernel: group size must be >= 1 (got %d)" group);
  let n = Array.length sites in
  let n_inputs = Compiled.n_inputs compiled in
  let n_gates = Compiled.n_gates compiled in
  let cgates = Compiled.gates compiled in
  let total = Array.length patterns in
  let width = group in
  (* All buffers live for the whole campaign: the word matrix, the
     good-machine scratch, the packed PI words, per-lane probe and diff
     words, and the grouped-eval accumulator. *)
  let matrix = Compiled.make_word_matrix compiled ~width in
  let scratch = Compiled.make_scratch compiled in
  let words = Array.make n_inputs 0 in
  let fw = Array.make width 0 in
  let diff = Array.make width 0 in
  let tmp = Array.make width 0 in
  (* Group-build scratch: stamp arrays dedupe cone gates and frontier
     nets without clearing between builds. *)
  let gstamp = Array.make (max 1 n_gates) (-1) in
  let nstamp = Array.make (max 1 (Compiled.n_nets compiled)) (-1) in
  let stamp = ref 0 in
  let build_group lanes =
    incr stamp;
    let cur = !stamp in
    let acc = ref [] in
    Array.iter
      (fun s ->
        Array.iter
          (fun g ->
            if gstamp.(g) <> cur then begin
              gstamp.(g) <- cur;
              acc := g :: !acc
            end)
          (Compiled.fanout_cone compiled s.gate))
      lanes;
    let cone = Array.of_list !acc in
    Array.sort compare cone;
    let cone_po =
      Array.of_seq (Seq.filter (Compiled.gate_is_po compiled) (Array.to_seq cone))
    in
    let facc = ref [] in
    Array.iter
      (fun g ->
        Array.iter
          (fun net ->
            let outside = net < n_inputs || gstamp.(net - n_inputs) <> cur in
            if outside && nstamp.(net) <> cur then begin
              nstamp.(net) <- cur;
              facc := net :: !facc
            end)
          cgates.(g).Compiled.ins)
      cone;
    { lanes; cone; cone_po; frontier = Array.of_list !facc }
  in
  (* Lazily (re)built group partition: the first unit sees checkpoint-
     preloaded detections through the same retired-count trigger as
     mid-run drops. *)
  let groups = ref [||] in
  let built_retired = ref (-1) in
  let rebuild (ctx : Kernel.ctx) =
    let live = ref [] in
    for sid = n - 1 downto 0 do
      if
        (not ctx.Kernel.failed.(sid))
        && not (ctx.Kernel.drop && ctx.Kernel.first.(sid) <> None)
      then live := sites.(sid) :: !live
    done;
    let live = Array.of_list !live in
    let n_live = Array.length live in
    let n_groups = (n_live + width - 1) / width in
    groups :=
      Array.init n_groups (fun k ->
          build_group (Array.sub live (k * width) (min width (n_live - (k * width)))))
  in
  let run_group (ctx : Kernel.ctx) grp ~start ~mask =
    let glen = Array.length grp.lanes in
    (match trace_site with
    | None -> ()
    | Some f -> Array.iter (fun s -> f ~sid:s.sid ~start) grp.lanes);
    (* Probe: each machine's faulty gate as a scalar against the good
       machine (its inputs there are good by construction).  The probed
       word doubles as the lane's override value during the sweep. *)
    let activated = ref false in
    for l = 0 to glen - 1 do
      let s = grp.lanes.(l) in
      let cg = cgates.(s.gate) in
      let w = Compiled.eval_fn_from s.fn cg.Compiled.ins scratch in
      fw.(l) <- w;
      if w <> scratch.(cg.Compiled.out) then activated := true
    done;
    ctx.Kernel.work := !(ctx.Kernel.work) + glen;
    if !activated then begin
      Array.iter
        (fun net -> Compiled.matrix_fill_row matrix ~width ~net scratch.(net))
        grp.frontier;
      (* Ascending sweep; lanes are in non-decreasing gate order, so the
         override fixups are a single pointer walk alongside it. *)
      let op = ref 0 in
      Array.iter
        (fun g ->
          let cg = cgates.(g) in
          Compiled.eval_fn_rows cg.Compiled.fn cg.Compiled.ins matrix ~width
            ~out:cg.Compiled.out ~tmp;
          while !op < glen && grp.lanes.(!op).gate = g do
            Bigarray.Array1.unsafe_set matrix ((cg.Compiled.out * width) + !op) fw.(!op);
            incr op
          done)
        grp.cone;
      ctx.Kernel.work := !(ctx.Kernel.work) + (Array.length grp.cone * glen);
      Array.fill diff 0 glen 0;
      Array.iter
        (fun g ->
          let out = cgates.(g).Compiled.out in
          let base = out * width in
          let good = scratch.(out) in
          for l = 0 to glen - 1 do
            diff.(l) <- diff.(l) lor (Bigarray.Array1.unsafe_get matrix (base + l) lxor good)
          done)
        grp.cone_po;
      for l = 0 to glen - 1 do
        let d = diff.(l) land mask in
        let sid = grp.lanes.(l).sid in
        if d <> 0 && ctx.Kernel.first.(sid) = None then begin
          let rec lowest j = if (d lsr j) land 1 = 1 then j else lowest (j + 1) in
          ctx.Kernel.detect ~sid ~pat:(start + lowest 0)
        end
      done
    end
  in
  let run_unit (ctx : Kernel.ctx) ~start ~len =
    Array.fill words 0 n_inputs 0;
    for j = 0 to len - 1 do
      let p = patterns.(start + j) in
      for i = 0 to n_inputs - 1 do
        if p.(i) then words.(i) <- words.(i) lor (1 lsl j)
      done
    done;
    let mask = if len >= word_bits then max_int else (1 lsl len) - 1 in
    Compiled.eval_words_into compiled ~scratch words;
    let retired = ref 0 in
    for sid = 0 to n - 1 do
      if ctx.Kernel.failed.(sid) || (ctx.Kernel.drop && ctx.Kernel.first.(sid) <> None)
      then incr retired
    done;
    if !retired <> !built_retired then begin
      built_retired := !retired;
      rebuild ctx
    end;
    Array.iter (fun grp -> run_group ctx grp ~start ~mask) !groups
  in
  let cone_gates =
    Array.fold_left
      (fun acc s -> acc + Array.length (Compiled.fanout_cone compiled s.gate))
      0 sites
  in
  let obs_fields (t : Kernel.totals) =
    [
      ("group", Obs.Int group);
      ("gate_evals", Obs.Int t.Kernel.work);
      ( "gate_evals_saved",
        Obs.Int (((t.Kernel.evals + t.Kernel.evals_saved) * n_gates) - t.Kernel.work) );
      ("cone_gates", Obs.Int cone_gates);
    ]
  in
  {
    Kernel.name = "ppsfp";
    unit_len = (fun ~start -> min word_bits (total - start));
    units_remaining = (fun ~start -> (total - start + word_bits - 1) / word_bits);
    run_unit;
    obs_fields;
  }

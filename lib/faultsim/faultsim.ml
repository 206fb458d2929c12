open Dynmos_cell
open Dynmos_core
open Dynmos_netlist
open Dynmos_sim

(* Fault simulation over netlists.

   The fault universe of a network is the union, over its gates, of the
   detectable *function classes* of each gate's fault library — this is
   exactly what the paper's model buys: because every physical fault of a
   dynamic gate is combinational, the classical injection-based machinery
   applies unchanged.  Two entry points run one kernel, propagating one
   fault at a time, event by event, from its own gate
   (Compiled.eval_fault_into: flat literal programs, one event bucket
   per logic level), and are cross-checked in tests against an
   independent deductive (fault-list propagation) oracle:

   - serial: one pattern per unit — the readable reference;
   - ppsfp: parallel-pattern single-fault propagation, 62 patterns per
     machine word, with each unit's fault sites optionally split across
     OCaml 5 domains (Parallel_exec.split).

   Every campaign policy — limits, checkpointing, counters, fault
   dropping, supervision and the all-detected early exit — is implemented
   once in [Campaign]; this module contributes the fault universe, the
   evaluation kernel ([Kernel.t] builder) and thin public wrappers. *)

type site = {
  sid : int;
  gate : Netlist.gate;
  entry : Faultlib.entry;
  fn : Compiled.gate_fn;  (* the faulty function, compiled *)
}

type universe = {
  compiled : Compiled.t;
  sites : site array;
  libraries : (string * Faultlib.t) list;  (* per distinct cell *)
}

let site_label u site =
  ignore u;
  Fmt.str "%s/class%d(%s)" site.gate.Netlist.gname site.entry.Faultlib.class_id
    (String.concat "," (List.map snd site.entry.Faultlib.members))

(* Structural validation of a universe against its circuit.  The
   constructor below always produces a valid universe, but the record is
   public (tests and future front-ends can assemble or slice one by
   hand), and a broken universe — stale sid, site pointing outside the
   circuit, the same fault class injected twice at one gate — used to
   surface only as confusing kernel behavior deep inside an engine.
   Fail at construction time with a named error instead. *)
let validate_universe u =
  let n_gates = Compiled.n_gates u.compiled in
  let seen = Hashtbl.create (Array.length u.sites) in
  Array.iteri
    (fun i s ->
      if s.sid <> i then
        invalid_arg
          (Fmt.str "Faultsim.universe: site at index %d carries sid %d (sids must be dense)" i
             s.sid);
      let gid = s.gate.Netlist.id in
      if gid < 0 || gid >= n_gates then
        invalid_arg
          (Fmt.str
             "Faultsim.universe: site %d references gate id %d outside the circuit (%d gates)"
             i gid n_gates);
      let key = (gid, s.entry.Faultlib.class_id) in
      if Hashtbl.mem seen key then
        invalid_arg
          (Fmt.str
             "Faultsim.universe: duplicate fault site (gate %d %S, class %d) — each \
              function class may be injected once per gate"
             gid s.gate.Netlist.gname s.entry.Faultlib.class_id);
      Hashtbl.add seen key ())
    u.sites

let universe ?electrical netlist =
  let compiled = Compiled.compile netlist in
  let libraries =
    List.map (fun c -> (Cell.name c, Faultlib.generate ?electrical c)) (Netlist.distinct_cells netlist)
  in
  (* Per distinct cell, prepare each table's (entry, compiled function)
     pair exactly once: entries are indexed by class_id through a hash
     table (the old per-gate [List.find] over the entry list was
     quadratic per gate), and the faulty cover is minimized/compiled per
     cell instead of per gate — every gate instantiating the cell shares
     the same immutable [gate_fn]. *)
  let per_cell = Hashtbl.create 16 in
  List.iter
    (fun (name, lib) ->
      let by_id = Hashtbl.create 16 in
      List.iter (fun e -> Hashtbl.replace by_id e.Faultlib.class_id e) (Faultlib.entries lib);
      let prepared =
        List.map
          (fun (class_id, table) ->
            match Hashtbl.find_opt by_id class_id with
            | Some entry -> (entry, Compiled.fn_of_table table)
            | None ->
                invalid_arg
                  (Fmt.str "Faultsim.universe: class %d of cell %s has a table but no entry"
                     class_id name))
          (Faultlib.tables lib)
      in
      Hashtbl.replace per_cell name prepared)
    libraries;
  let sites = ref [] in
  let sid = ref 0 in
  Array.iter
    (fun g ->
      List.iter
        (fun (entry, fn) ->
          sites := { sid = !sid; gate = g; entry; fn } :: !sites;
          incr sid)
        (Hashtbl.find per_cell (Cell.name g.Netlist.cell)))
    (Netlist.gate_array netlist);
  let u = { compiled; sites = Array.of_list (List.rev !sites); libraries } in
  validate_universe u;
  u

(* Sub-universe over a gate subset (the serve protocol's "gates" field):
   sites are filtered and renumbered densely so every engine works on the
   result unchanged.  Out-of-range and duplicate gate ids are user input
   at the server boundary — named errors, never asserts. *)
let restrict_universe u ~gates =
  let n_gates = Compiled.n_gates u.compiled in
  let wanted = Hashtbl.create 16 in
  List.iter
    (fun g ->
      if g < 0 || g >= n_gates then
        invalid_arg
          (Fmt.str "Faultsim.restrict_universe: gate id %d out of range (circuit has %d gates)"
             g n_gates);
      if Hashtbl.mem wanted g then
        invalid_arg (Fmt.str "Faultsim.restrict_universe: duplicate gate id %d" g);
      Hashtbl.add wanted g ())
    gates;
  let kept =
    Array.to_list u.sites
    |> List.filter (fun s -> Hashtbl.mem wanted s.gate.Netlist.id)
    |> List.mapi (fun i s -> { s with sid = i })
  in
  let u' = { u with sites = Array.of_list kept } in
  validate_universe u';
  u'

let n_sites u = Array.length u.sites

(* --- Results ------------------------------------------------------------ *)

type summary = Campaign.summary = {
  n_sites : int;
  n_patterns : int;
  first_detection : int option array;  (* per site: index of first detecting pattern *)
  outcome : Outcome.t;       (* did the campaign finish, and if not, why *)
  patterns_done : int;
  sites_done : int;          (* sites whose result is final *)
}

let n_detected s = Campaign.detected_count s.first_detection

(* Coverage over the whole universe: on a partial run this is the
   *conservative lower bound* — every site the stopped sweep never
   resolved counts as undetected. *)
let coverage s =
  if s.n_sites = 0 then 1.0 else float_of_int (n_detected s) /. float_of_int s.n_sites

(* Coverage over the sites actually resolved — the optimistic companion
   of [coverage] on partial runs; identical to it on complete ones. *)
let coverage_of_done s =
  if s.sites_done = 0 then 1.0
  else float_of_int (n_detected s) /. float_of_int s.sites_done

let undetected u s =
  let acc = ref [] in
  Array.iteri
    (fun i d -> if d = None then acc := u.sites.(i) :: !acc)
    s.first_detection;
  List.rev !acc

(* Fraction of sites detected within the first k patterns, for k = 0..n. *)
let coverage_curve s =
  let counts = Array.make (s.n_patterns + 1) 0 in
  Array.iter
    (function Some p -> counts.(p + 1) <- counts.(p + 1) + 1 | None -> ())
    s.first_detection;
  let total = float_of_int (max 1 s.n_sites) in
  let acc = ref 0 in
  Array.map
    (fun c ->
      acc := !acc + c;
      float_of_int !acc /. total)
    counts

(* --- Injection kernel ------------------------------------------------------ *)

(* Each faulty machine starts from the good-machine baseline and
   propagates the fault event by event from its own gate
   (Compiled.eval_fault_into), level by level: only gates with a changed
   input are re-evaluated, and propagation stops where the faulty word
   equals the good one — bit-identical to whole-circuit injection.  The
   driver's [gate_evals_saved] counts the gate evaluations this avoided
   relative to whole-circuit sweeps (kernel invocations x gates). *)

let detects u site pattern =
  let good = Compiled.eval u.compiled pattern in
  let faulty = Compiled.eval ~override:(site.gate.Netlist.id, site.fn) u.compiled pattern in
  good <> faulty

let word_bits = 62

(* Work thresholds of [run_ppsfp ~num_domains], in gate evaluations.  A
   campaign starts at most one domain per [spawn_work] of static estimate
   (sites x words x gates, as if every site swept the whole circuit on
   every word), so a small one pays no spawn; once running, the helpers
   join a unit only after a unit that measured at least [unit_work]
   event-driven gate evaluations.  On a 2-vCPU Xeon VM, with the flat
   level-bucket evaluator (27-39 ns per evaluation, good sweeps
   included), a second domain broke even on units of about 2 000
   evaluations (0.06 ms): on random circuits without dropping it cost
   1.01-1.09x one domain's wall time at 1 200-1 600 evaluations per
   unit, 0.73-1.22x at 1 700-1 950, and 0.65-0.76x at 2 300-3 200 —
   below the threshold, waking the helpers costs about what they save.
   The same threshold was first derived at 65-110 ns per evaluation;
   halving that cost did not move the break-even unit. *)
let spawn_work = 50_000
let unit_work = 2_000

(* One builder serves both entry points: serial is the bit-parallel
   mechanics with one pattern per unit (words are then plain 0/1), and
   ppsfp packs 62 patterns per unit, with each unit's sites split
   across the helpers of [pool] when it has one. *)
let injection_kernel ?pool ?(requested_domains = 1) ~name ~unit_bits u patterns =
  let compiled = u.compiled in
  let n_inputs = Compiled.n_inputs compiled in
  let n = Array.length u.sites in
  (* All buffers live outside the loops: good machine in [scratch]
     (doubling as the propagation baseline), queue and restore state in
     [events]. *)
  let scratch = Compiled.make_scratch compiled in
  let events = Compiled.make_events compiled in
  let words = Array.make n_inputs 0 in
  (* Sites [lo, hi) of the unit on one domain's buffers.  [words] stays
     read-only until the unit ends, so recomputing the good machine from
     it restores a scratch an exception mid-propagation left dirty. *)
  let sweep (ctx : Kernel.ctx) ~start ~mask ~scratch ~events ~work ~detect lo hi =
    let restore () = Compiled.eval_words_into compiled ~scratch words in
    for i = lo to hi - 1 do
      let site = u.sites.(i) in
      if ctx.Kernel.failed.(site.sid) then ()
      else if ctx.Kernel.drop && ctx.Kernel.first.(site.sid) <> None then ()
      else
        let eval () =
          Compiled.eval_fault_into ~tally:work compiled
            ~override:(site.gate.Netlist.id, site.fn) ~scratch ~events
        in
        match ctx.Kernel.supervise ~sid:site.sid ~restore eval with
        | None -> ()
        | Some diff ->
            let diff = diff land mask in
            if diff <> 0 && ctx.Kernel.first.(site.sid) = None then begin
              (* First detecting pattern: lowest set bit. *)
              let rec lowest j = if (diff lsr j) land 1 = 1 then j else lowest (j + 1) in
              detect ~sid:site.sid ~pat:(start + lowest 0)
            end
    done
  in
  (* Per helper slot: private scratch, event state, gate tally and the
     detections found this unit.  Only the calling domain touches the
     driver's state; it merges the helpers' tallies and detections once
     the unit ends. *)
  let helpers =
    match pool with
    | None -> [||]
    | Some p ->
        Array.init (Parallel_exec.Scheduler.size p) (fun _ ->
            (Compiled.make_scratch compiled, Compiled.make_events compiled, ref 0, ref []))
  in
  let block = max 1 (n / ((Array.length helpers + 1) * 8)) in
  let last_work = ref max_int (* the first unit always splits *) in
  let prepare ~start ~len =
    Array.fill words 0 n_inputs 0;
    for j = 0 to len - 1 do
      let p = patterns.(start + j) in
      for i = 0 to n_inputs - 1 do
        if p.(i) then words.(i) <- words.(i) lor (1 lsl j)
      done
    done;
    Compiled.eval_words_into compiled ~scratch words
  in
  let run_unit (ctx : Kernel.ctx) ~start ~len =
    let mask = if len >= word_bits then max_int else (1 lsl len) - 1 in
    let work = ctx.Kernel.work in
    let w0 = !work in
    (match pool with
    | Some pool when !last_work >= unit_work ->
        Parallel_exec.split pool ~n ~block
          ~prepare:(fun () ->
            prepare ~start ~len;
            Array.iter
              (fun (s, _, _, _) -> Array.blit scratch 0 s 0 (Array.length scratch))
              helpers)
          (fun ~slot lo hi ->
            if slot = 0 then
              sweep ctx ~start ~mask ~scratch ~events ~work ~detect:ctx.Kernel.detect lo hi
            else begin
              let scratch, events, work, hits = helpers.(slot - 1) in
              sweep ctx ~start ~mask ~scratch ~events ~work
                ~detect:(fun ~sid ~pat -> hits := (sid, pat) :: !hits)
                lo hi
            end);
        Array.iter
          (fun (_, _, w, hits) ->
            work := !work + !w;
            w := 0;
            List.iter (fun (sid, pat) -> ctx.Kernel.detect ~sid ~pat) !hits;
            hits := [])
          helpers
    | _ ->
        prepare ~start ~len;
        sweep ctx ~start ~mask ~scratch ~events ~work ~detect:ctx.Kernel.detect 0 n);
    (* a unit too small to pay for waking the helpers keeps the next one
       on this domain alone *)
    last_work := !work - w0
  in
  {
    Kernel.name;
    unit_bits;
    gates = Compiled.n_gates compiled;
    requested_domains;
    effective_domains = 1 + Option.fold ~none:0 ~some:Parallel_exec.Scheduler.live_workers pool;
    run_unit;
  }

(* --- Public entry points: thin wrappers over the campaign driver ------------ *)

let run_serial ?drop ?obs ?deadline ?max_evals ?interrupt ?checkpoint ?on_counts ?chaos
    ?crash_hook ?on_progress u (patterns : bool array array) =
  Campaign.run_patterns ?drop ?obs ?deadline ?max_evals ?interrupt ?checkpoint ?on_counts ?chaos
    ?crash_hook ?on_progress ~n_sites:(n_sites u)
    ~total:(Array.length patterns)
    (injection_kernel ~name:"serial" ~unit_bits:1 u patterns)

(* PPSFP in Waicukauski et al.'s sense: parallel patterns, one fault at
   a time, event-driven propagation.  Helper domains, spawned once per
   campaign and joined when it ends, split each unit's sites; an armed
   chaos registry starts none, so its schedule replays from the one
   sweeping domain. *)
let run_ppsfp ?drop ?(num_domains = 1) ?obs ?deadline ?max_evals ?interrupt ?checkpoint
    ?on_counts ?chaos ?crash_hook ?on_progress u (patterns : bool array array) =
  if num_domains < 1 then
    invalid_arg (Fmt.str "Faultsim.run_ppsfp: num_domains must be >= 1 (got %d)" num_domains);
  let total = Array.length patterns in
  let estimate =
    n_sites u * ((total + word_bits - 1) / word_bits) * Compiled.n_gates u.compiled
  in
  let wanted =
    if Option.fold ~none:false ~some:Dynmos_chaos.Chaos.enabled chaos then 1
    else max 1 (min num_domains (min (n_sites u) (estimate / spawn_work)))
  in
  let pool =
    if wanted = 1 then None
    else
      try Some (Parallel_exec.Scheduler.create ~num_domains:(wanted - 1) ())
      with Failure _ -> None (* no helper could spawn: run on this domain alone *)
  in
  Fun.protect ~finally:(fun () -> Option.iter Parallel_exec.Scheduler.shutdown pool)
  @@ fun () ->
  Campaign.run_patterns ?drop ?obs ?deadline ?max_evals ?interrupt ?checkpoint ?on_counts ?chaos
    ?crash_hook ?on_progress ~n_sites:(n_sites u) ~total
    (injection_kernel ?pool ~requested_domains:num_domains ~name:"ppsfp" ~unit_bits:word_bits u
       patterns)

(* --- Random-pattern driver ------------------------------------------------ *)

let random_patterns ?(weights : float array option) prng ~n_inputs ~count =
  if n_inputs < 0 then
    invalid_arg (Fmt.str "Faultsim.random_patterns: n_inputs must be >= 0 (got %d)" n_inputs);
  if count < 0 then
    invalid_arg (Fmt.str "Faultsim.random_patterns: count must be >= 0 (got %d)" count);
  (match weights with
  | None -> ()
  | Some w ->
      if Array.length w < n_inputs then
        invalid_arg
          (Fmt.str
             "Faultsim.random_patterns: weights has %d entries but the circuit has %d inputs"
             (Array.length w) n_inputs);
      Array.iteri
        (fun i p ->
          if not (p >= 0.0 && p <= 1.0) then
            invalid_arg
              (Fmt.str
                 "Faultsim.random_patterns: weights.(%d) = %g is not a probability in [0, 1]" i p))
        w);
  Array.init count (fun _ ->
      Array.init n_inputs (fun i ->
          let p = match weights with Some w -> w.(i) | None -> 0.5 in
          Dynmos_util.Prng.bernoulli prng p))

(* 2^n pattern arrays of n bools each: beyond ~24 inputs the table no
   longer fits in memory, and beyond [Sys.int_size - 1] the [1 lsl n]
   row count silently overflows — fail loudly well before either. *)
let max_exhaustive_inputs = 24

let exhaustive_patterns n_inputs =
  if n_inputs < 0 then
    invalid_arg (Fmt.str "Faultsim.exhaustive_patterns: n_inputs must be >= 0 (got %d)" n_inputs);
  if n_inputs > max_exhaustive_inputs then
    invalid_arg
      (Fmt.str
         "Faultsim.exhaustive_patterns: %d inputs would need 2^%d patterns; the supported \
          maximum is %d inputs"
         n_inputs n_inputs max_exhaustive_inputs);
  Array.init (1 lsl n_inputs) (fun row ->
      Array.init n_inputs (fun i -> (row lsr i) land 1 = 1))

(* --- Checkpoint wiring ------------------------------------------------------ *)

(* Digests pin a checkpoint to the exact campaign that produced it.
   They cover campaign *identity* — topology, fault universe, pattern
   set — not implementation details like engine choice or domain count
   (any engine may resume any engine's checkpoint and still be
   bit-identical). *)

let circuit_digest u =
  let b = Buffer.create 1024 in
  Array.iter
    (fun cg ->
      let g = cg.Compiled.g in
      Buffer.add_string b (string_of_int g.Netlist.id);
      Buffer.add_char b ':';
      Buffer.add_string b g.Netlist.gname;
      Buffer.add_char b ':';
      Buffer.add_string b (Cell.name g.Netlist.cell);
      Array.iter
        (fun i ->
          Buffer.add_char b ',';
          Buffer.add_string b (string_of_int i))
        cg.Compiled.ins;
      Buffer.add_char b '>';
      Buffer.add_string b (string_of_int cg.Compiled.out);
      Buffer.add_char b ';')
    (Compiled.gates u.compiled);
  Digest.to_hex (Digest.string (Buffer.contents b))

let universe_digest u =
  let b = Buffer.create 1024 in
  Array.iter
    (fun s ->
      Buffer.add_string b (string_of_int s.sid);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int s.gate.Netlist.id);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int s.entry.Faultlib.class_id);
      Buffer.add_char b ':';
      Buffer.add_string b (String.concat "," (List.map snd s.entry.Faultlib.members));
      Buffer.add_char b ';')
    u.sites;
  Digest.to_hex (Digest.string (Buffer.contents b))

let patterns_digest (patterns : bool array array) =
  let b = Buffer.create (Array.length patterns * 8) in
  Array.iter
    (fun p ->
      Array.iter (fun v -> Buffer.add_char b (if v then '1' else '0')) p;
      Buffer.add_char b ';')
    patterns;
  Digest.to_hex (Digest.string (Buffer.contents b))

let checkpoint_ctl ~path ~interval ?resume ?prng_state ?chaos ?digests u patterns =
  let circuit_digest, universe_digest, pattern_digest =
    match digests with
    | Some d -> d
    | None -> (circuit_digest u, universe_digest u, patterns_digest patterns)
  in
  Checkpoint.create ~path ~interval ?resume ?prng_state ?chaos ~circuit_digest ~universe_digest
    ~pattern_digest ~n_sites:(n_sites u) ~n_patterns:(Array.length patterns) ()

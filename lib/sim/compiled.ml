open Dynmos_expr
open Dynmos_cell
open Dynmos_netlist

(* Compiled form of a netlist for fast simulation.

   Nets get dense indices (primary inputs first, then gate outputs in
   topological order).  Every distinct cell function is compiled once into
   a cube cover over the gate's input positions, so evaluation is pure
   word arithmetic: the same cover evaluates one pattern (ints 0/1) or 62
   packed patterns per machine word — the representation bit-parallel
   fault simulation uses.

   The evaluators read only flat int arrays: each gate's good function is
   a literal program inside one [code] array, and gate inputs, consumer
   lists and the per-level event buckets are offset-indexed flat arrays.
   Fault injection ([eval_fault_into]) propagates events along the
   consumer lists, level by level. *)

type gate_fn = {
  arity : int;
  cubes : (int * int) array;  (* (care, value) over input positions *)
  prog : int array;
      (* the cubes as a literal program: per cube its literal count, then
         one [position * 2 + negated] per literal *)
  table : Truth_table.t;      (* over the cell's formal inputs *)
}

type cgate = {
  g : Netlist.gate;
  ins : int array;  (* net indices, positional *)
  out : int;        (* net index *)
  fn : gate_fn;
}

type t = {
  netlist : Netlist.t;
  n_nets : int;
  n_inputs : int;
  po : int array;       (* net indices of the primary outputs *)
  cgates : cgate array; (* topological order; cgates.(i).g.id = i *)
  index_of_net : (string, int) Hashtbl.t;
  net_names : string array;
  net_po : bool array;  (* per net: is it a primary output *)
  (* The flat layout the evaluators read.  Gate g's output is net
     [n_inputs + g]; the entries of gate g in [code], [inputs] and
     [cons] run from [X_off.(g)] up to [X_off.(g + 1)]. *)
  code : int array;
      (* good functions as literal programs over nets: per cube its
         literal count, then one [net * 2 + negated] per literal *)
  code_off : int array;
  inputs : int array;   (* gate input nets, positional *)
  inputs_off : int array;
  cons : int array;
      (* consumers: the gates that read gate g's output, ascending and
         duplicate-free *)
  cons_off : int array;
  level : int array;
      (* per gate: 0 when it reads only primary inputs, else 1 + the
         deepest level among the gates it reads *)
  level_off : int array;
      (* bucket l of the event queue spans [level_off.(l)] up to
         [level_off.(l + 1)]: one slot per gate at level l *)
}

let popcount x =
  let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
  go x 0

let fn_of_table table =
  let sop = Minimize.of_table table in
  let cubes = Array.of_list (List.map (fun c -> (Cube.care c, Cube.value c)) sop) in
  let prog =
    Array.make (Array.fold_left (fun n (care, _) -> n + 1 + popcount care) 0 cubes) 0
  in
  let pc = ref 0 in
  Array.iter
    (fun (care, value) ->
      prog.(!pc) <- popcount care;
      incr pc;
      for i = 0 to Truth_table.n_vars table - 1 do
        if (care lsr i) land 1 = 1 then begin
          prog.(!pc) <- (i * 2) lor (1 - ((value lsr i) land 1));
          incr pc
        end
      done)
    cubes;
  { arity = Truth_table.n_vars table; cubes; prog; table }

let fn_of_cell cell = fn_of_table (Cell.logic_table cell)

(* Offsets of a flat array from per-entry counts: entry i spans
   [off.(i), off.(i + 1)). *)
let offsets counts =
  let off = Array.make (Array.length counts + 1) 0 in
  Array.iteri (fun i c -> off.(i + 1) <- off.(i) + c) counts;
  off

let compile netlist =
  let index_of_net = Hashtbl.create 64 in
  let next = ref 0 in
  let assign net =
    Hashtbl.replace index_of_net net !next;
    incr next
  in
  List.iter assign (Netlist.inputs netlist);
  let n_inputs = !next in
  Array.iter (fun g -> assign g.Netlist.output_net) (Netlist.gate_array netlist);
  let n_nets = !next in
  let idx net = Hashtbl.find index_of_net net in
  (* Compile each distinct cell once. *)
  let fns = Hashtbl.create 16 in
  let fn_of cell =
    match Hashtbl.find_opt fns (Cell.name cell) with
    | Some fn -> fn
    | None ->
        let fn = fn_of_cell cell in
        Hashtbl.add fns (Cell.name cell) fn;
        fn
  in
  let cgates =
    Array.map
      (fun g ->
        { g; ins = Array.of_list (List.map idx g.input_nets); out = idx g.output_net; fn = fn_of g.cell })
      (Netlist.gate_array netlist)
  in
  let po = Array.of_list (List.map idx (Netlist.outputs netlist)) in
  let net_names = Array.make n_nets "" in
  Hashtbl.iter (fun net i -> net_names.(i) <- net) index_of_net;
  let net_po = Array.make n_nets false in
  Array.iter (fun net -> net_po.(net) <- true) po;
  (* Gate ids are dense topological indices (validated by Netlist), so
     gate i's output net is n_inputs + i and every gate it reads has a
     smaller id.  Each flat array is built by a counting pass that sizes
     it and a pass that fills it; no per-gate list is built. *)
  let n_g = Array.length cgates in
  Array.iteri (fun i cg -> assert (cg.g.Netlist.id = i && cg.out = n_inputs + i)) cgates;
  let inputs_off = offsets (Array.map (fun (cg : cgate) -> Array.length cg.ins) cgates) in
  let inputs = Array.make inputs_off.(n_g) 0 in
  Array.iteri
    (fun g (cg : cgate) -> Array.blit cg.ins 0 inputs inputs_off.(g) (Array.length cg.ins))
    cgates;
  (* A gate's good program is its function's program with each literal's
     input position replaced by the net wired there. *)
  let code_off = offsets (Array.map (fun cg -> Array.length cg.fn.prog) cgates) in
  let code = Array.make code_off.(n_g) 0 in
  Array.iteri
    (fun g cg ->
      let prog = cg.fn.prog and base = code_off.(g) in
      let pc = ref 0 in
      while !pc < Array.length prog do
        let k = prog.(!pc) in
        code.(base + !pc) <- k;
        for j = !pc + 1 to !pc + k do
          code.(base + j) <- (cg.ins.(prog.(j) lsr 1) * 2) lor (prog.(j) land 1)
        done;
        pc := !pc + k + 1
      done)
    cgates;
  (* [each_edge f] calls [f producer reader] once per distinct pair,
     readers ascending, so a gate reading one net on several inputs
     counts once.  The first pass counts consumers and sets levels (a
     producer's level is final before any of its readers is reached);
     the second fills the consumer lists. *)
  let mark = Array.make n_g (-1) in
  let each_edge f =
    Array.fill mark 0 n_g (-1);
    Array.iteri
      (fun reader cg ->
        Array.iter
          (fun net ->
            let p = net - n_inputs in
            if p >= 0 && mark.(p) <> reader then begin
              mark.(p) <- reader;
              f p reader
            end)
          cg.ins)
      cgates
  in
  let fill = Array.make n_g 0 and level = Array.make n_g 0 in
  each_edge (fun p reader ->
      fill.(p) <- fill.(p) + 1;
      level.(reader) <- max level.(reader) (level.(p) + 1));
  let cons_off = offsets fill in
  let cons = Array.make cons_off.(n_g) 0 in
  Array.blit cons_off 0 fill 0 n_g;
  each_edge (fun p reader ->
      cons.(fill.(p)) <- reader;
      fill.(p) <- fill.(p) + 1);
  let per_level = Array.make (1 + Array.fold_left max (-1) level) 0 in
  Array.iter (fun l -> per_level.(l) <- per_level.(l) + 1) level;
  {
    netlist; n_nets; n_inputs; po; cgates; index_of_net; net_names; net_po;
    code; code_off; inputs; inputs_off; cons; cons_off; level; level_off = offsets per_level;
  }

let netlist t = t.netlist
let n_nets t = t.n_nets
let n_inputs t = t.n_inputs
let n_outputs t = Array.length t.po
let n_gates t = Array.length t.cgates
let po_indices t = t.po
let net_index t net = Hashtbl.find_opt t.index_of_net net
let net_name t i = t.net_names.(i)
let gates t = t.cgates
let consumers t gid = Array.sub t.cons t.cons_off.(gid) (t.cons_off.(gid + 1) - t.cons_off.(gid))

(* Evaluate one gate function on word-packed inputs through its cubes:
   bit j of the result is the function applied to bit j of each input
   word.  It deliberately ignores [prog], so the tests and the deductive
   oracle that evaluate through it share nothing with the compiled
   programs. *)
let eval_fn fn (input_words : int array) =
  let out = ref 0 in
  for c = 0 to Array.length fn.cubes - 1 do
    let care, value = fn.cubes.(c) in
    let m = ref (-1) in
    for i = 0 to fn.arity - 1 do
      if (care lsr i) land 1 = 1 then
        m := !m land (if (value lsr i) land 1 = 1 then input_words.(i) else lnot input_words.(i))
    done;
    out := !out lor !m
  done;
  !out

(* Gate [g]'s good word, from its program in [t.code].  A literal
   [net * 2 + negated] reads the net's word [w] as [w lxor -negated]:
   [w] itself, or [lnot w] when negated, without a branch. *)
let eval_gate t g (nets : int array) =
  let code = t.code in
  let out = ref 0 and pc = ref t.code_off.(g) in
  let hi = t.code_off.(g + 1) in
  while !pc < hi do
    let k = code.(!pc) in
    let m = ref (-1) in
    for j = !pc + 1 to !pc + k do
      let l = code.(j) in
      m := !m land (nets.(l lsr 1) lxor - (l land 1))
    done;
    out := !out lor !m;
    pc := !pc + k + 1
  done;
  !out

(* [fn]'s word at gate [g]: its program's positions read through the
   gate's inputs.  Callers have checked the arity ([check_override]). *)
let eval_override t g fn (nets : int array) =
  let prog = fn.prog and inputs = t.inputs and base = t.inputs_off.(g) in
  let out = ref 0 and pc = ref 0 in
  while !pc < Array.length prog do
    let k = prog.(!pc) in
    let m = ref (-1) in
    for j = !pc + 1 to !pc + k do
      let l = prog.(j) in
      m := !m land (nets.(inputs.(base + (l lsr 1))) lxor - (l land 1))
    done;
    out := !out lor !m;
    pc := !pc + k + 1
  done;
  !out

(* The flat input array has no per-gate bounds: an override wider than
   its gate would silently read the next gate's inputs. *)
let check_override t gid fn =
  if gid < 0 || gid >= Array.length t.cgates then
    invalid_arg (Printf.sprintf "Compiled: override of gate %d outside the circuit" gid);
  let n_ins = t.inputs_off.(gid + 1) - t.inputs_off.(gid) in
  if fn.arity > n_ins then
    invalid_arg
      (Printf.sprintf "Compiled: override arity %d exceeds gate %d's %d inputs" fn.arity gid n_ins)

(* Evaluation scratch state.  All mutable state of an evaluation lives in
   the caller-provided [scratch] buffer: [t] itself is never written after
   [compile], so one compiled netlist can be shared read-only across
   domains — but a scratch buffer must belong to exactly one domain (or
   one call chain); sharing it across domains races on every net value. *)
type scratch = int array

let make_scratch t = Array.make t.n_nets 0

let sweep t (scratch : scratch) lo hi =
  for g = lo to hi - 1 do
    scratch.(t.n_inputs + g) <- eval_gate t g scratch
  done

(* [override] substitutes the function of one gate (fault injection).
   Writes every net's word into [scratch] (length [n_nets]). *)
let eval_words_into ?override t ~(scratch : scratch) (pi_words : int array) =
  if Array.length pi_words <> t.n_inputs then invalid_arg "Compiled.eval_words: PI arity";
  if Array.length scratch <> t.n_nets then invalid_arg "Compiled.eval_words_into: scratch size";
  (match override with Some (gid, fn) -> check_override t gid fn | None -> ());
  Array.blit pi_words 0 scratch 0 t.n_inputs;
  match override with
  | None -> sweep t scratch 0 (Array.length t.cgates)
  | Some (gid, fn) ->
      sweep t scratch 0 gid;
      scratch.(t.n_inputs + gid) <- eval_override t gid fn scratch;
      sweep t scratch (gid + 1) (Array.length t.cgates)

(* --- Event-driven fault injection ------------------------------------------ *)

(* Per-domain state of [eval_fault_into]: the event queue as one bucket
   per logic level (bucket l holds the gates of level l queued in the
   current call, [fill.(l)] of them, from [level_off.(l)] on), a stamp
   per gate marking it queued in the current call, and the nets the call
   overwrote with their good words.  Each gate is queued and evaluated
   at most once per call, so no bucket and no restore array can
   overflow. *)
type events = {
  queue : int array;
  fill : int array;     (* per level *)
  stamp : int array;
  mutable epoch : int;
  touched : int array;  (* net indices overwritten, in write order *)
  saved : int array;    (* their good words *)
  mutable n_touched : int;
}

let make_events t =
  let n = max 1 (Array.length t.cgates) in
  {
    queue = Array.make n 0;
    fill = Array.make (Array.length t.level_off - 1) 0;
    stamp = Array.make n 0;
    epoch = 0;
    touched = Array.make n 0;
    saved = Array.make n 0;
    n_touched = 0;
  }

(* Write a changed word into [scratch], saving the good word for the
   restore, and return the net's contribution to the output diff. *)
let set_changed t ev (scratch : scratch) net w =
  let good = scratch.(net) in
  ev.touched.(ev.n_touched) <- net;
  ev.saved.(ev.n_touched) <- good;
  ev.n_touched <- ev.n_touched + 1;
  scratch.(net) <- w;
  if t.net_po.(net) then w lxor good else 0

(* Queue gate [g]'s consumers not yet queued in this call, each in the
   bucket of its level; returns the highest level now holding a gate. *)
let push_readers t ev g top =
  let top = ref top in
  for j = t.cons_off.(g) to t.cons_off.(g + 1) - 1 do
    let h = t.cons.(j) in
    if ev.stamp.(h) <> ev.epoch then begin
      ev.stamp.(h) <- ev.epoch;
      let l = t.level.(h) in
      ev.queue.(t.level_off.(l) + ev.fill.(l)) <- h;
      ev.fill.(l) <- ev.fill.(l) + 1;
      if l > !top then top := l
    end
  done;
  !top

(* Event-driven faulty evaluation (parallel-pattern single-fault
   propagation, Waicukauski et al. 1985).

   [scratch] must hold a completed good-machine evaluation
   ([eval_words_into] on the same PI words); it is used in place as the
   baseline and restored before returning, so one buffer serves any
   number of consecutive fault injections against the same patterns.

   The overridden gate is evaluated first: when its faulty word equals
   the good word on every packed pattern the fault is not activated and
   the call ends there — the common case.  Otherwise its consumers are
   queued, and the level buckets are drained in increasing level order.
   A gate is only queued by a gate of a lower level, so a bucket is
   complete when it is reached, and every gate is evaluated after all of
   its changed inputs.  A gate whose word differs from the good word
   writes it, ORs the difference into the result when its net is a
   primary output, and queues its own consumers.  Propagation stops
   wherever the faulty word equals the good one.  Nets no event reached
   still hold their good words, so the result is bit-identical to a
   whole-circuit faulty evaluation XORed against the good one over all
   outputs.  Only the touched nets are restored.

   [tally], when given, accumulates the gate evaluations performed: 1
   when the fault is not activated, otherwise 1 plus the gates
   re-evaluated, each at most once and all in the fault's transitive
   fanout. *)
let eval_fault_into ?tally t ~override:(gid, fn') ~(scratch : scratch) ~events:ev =
  check_override t gid fn';
  let faulty0 = eval_override t gid fn' scratch in
  let diff = ref 0 in
  let evaluated = ref 1 in
  if faulty0 <> scratch.(t.n_inputs + gid) then begin
    (* Only buckets above the faulty gate's level are used; clearing
       them here means a call that raised leaves nothing behind. *)
    let first = t.level.(gid) + 1 in
    for l = first to Array.length ev.fill - 1 do
      ev.fill.(l) <- 0
    done;
    ev.n_touched <- 0;
    ev.epoch <- ev.epoch + 1;
    diff := set_changed t ev scratch (t.n_inputs + gid) faulty0;
    let top = ref (push_readers t ev gid (first - 1)) in
    let l = ref first in
    while !l <= !top do
      let base = t.level_off.(!l) in
      for i = base to base + ev.fill.(!l) - 1 do
        let g = ev.queue.(i) in
        let w = eval_gate t g scratch in
        incr evaluated;
        let net = t.n_inputs + g in
        if w <> scratch.(net) then begin
          diff := !diff lor set_changed t ev scratch net w;
          top := push_readers t ev g !top
        end
      done;
      incr l
    done;
    for i = ev.n_touched - 1 downto 0 do
      scratch.(ev.touched.(i)) <- ev.saved.(i)
    done
  end;
  (match tally with Some r -> r := !r + !evaluated | None -> ());
  !diff

let eval_words ?override t (pi_words : int array) =
  let scratch = make_scratch t in
  eval_words_into ?override t ~scratch pi_words;
  scratch

let outputs_of_nets t nets = Array.map (fun i -> nets.(i)) t.po

let eval ?override t (pi : bool array) =
  let words = Array.map (fun b -> if b then 1 else 0) pi in
  let nets = eval_words ?override t words in
  Array.map (fun i -> nets.(i) land 1 = 1) t.po

let eval_nets ?override t (pi : bool array) =
  let words = Array.map (fun b -> if b then 1 else 0) pi in
  let nets = eval_words ?override t words in
  Array.map (fun w -> w land 1 = 1) nets

(* Reference evaluation through the cell logic expressions (no cube
   compilation) — used to cross-check the compiled path in tests. *)
let eval_reference t (pi : bool array) =
  let env = Hashtbl.create 64 in
  List.iteri (fun i net -> Hashtbl.replace env net pi.(i)) (Netlist.inputs t.netlist);
  Array.iter
    (fun cg ->
      let formal = Cell.inputs cg.g.cell in
      let binding = List.combine formal cg.g.input_nets in
      let lookup v =
        match List.assoc_opt v binding with
        | Some net -> Hashtbl.find env net
        | None -> invalid_arg ("eval_reference: free variable " ^ v)
      in
      Hashtbl.replace env cg.g.output_net (Expr.eval lookup (Cell.logic cg.g.cell)))
    t.cgates;
  Array.of_list (List.map (Hashtbl.find env) (Netlist.outputs t.netlist))

(* The global function of one primary output as an expression over the
   primary inputs (cone extraction); feasible for small networks and used
   by PROTEST's exact analyses. *)
let output_expr t net =
  let cache = Hashtbl.create 64 in
  let rec expr_of net =
    match Hashtbl.find_opt cache net with
    | Some e -> e
    | None ->
        let e =
          match Netlist.gate_of_net t.netlist net with
          | None -> Expr.var net
          | Some g ->
              let formal = Cell.inputs g.cell in
              let binding = List.combine formal g.input_nets in
              Expr.subst
                (fun v ->
                  match List.assoc_opt v binding with
                  | Some inner -> Some (expr_of inner)
                  | None -> None)
                (Cell.logic g.cell)
        in
        Hashtbl.replace cache net e;
        e
  in
  expr_of net

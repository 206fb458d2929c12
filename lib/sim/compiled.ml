open Dynmos_expr
open Dynmos_cell
open Dynmos_netlist

(* Compiled form of a netlist for fast simulation.

   Nets get dense indices (primary inputs first, then gate outputs in
   topological order).  Every distinct cell function is compiled once into
   a cube cover over the gate's input positions, so evaluation is pure
   word arithmetic: the same cover evaluates one pattern (ints 0/1) or 62
   packed patterns per machine word — the representation bit-parallel
   fault simulation uses.  Fault injection propagates events along each
   gate's consumer list ([eval_fault_into]). *)

type gate_fn = {
  arity : int;
  cubes : (int * int) array;  (* (care, value) over input positions *)
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
  (* Structural fanout, computed once at compile time: per gate id, the
     gates that read its output, ascending and duplicate-free.  Fault
     injection follows these edges from the faulty gate. *)
  consumers : int array array;
  net_po : bool array;  (* per net: is it a primary output *)
}

let fn_of_table table =
  let sop = Minimize.of_table table in
  {
    arity = Truth_table.n_vars table;
    cubes = Array.of_list (List.map (fun c -> (Cube.care c, Cube.value c)) sop);
    table;
  }

let fn_of_cell cell = fn_of_table (Cell.logic_table cell)

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
  (* Gate ids are dense topological indices (validated by Netlist), so
     gate i's output net is n_inputs + i and every consumer of gate i
     has a larger id.  Walking gates in descending id order and
     prepending builds each list ascending; a gate reading one net on
     several inputs is listed once. *)
  let n_g = Array.length cgates in
  Array.iteri (fun i cg -> assert (cg.g.Netlist.id = i && cg.out = n_inputs + i)) cgates;
  let consumers = Array.make n_g [] in
  for gi = n_g - 1 downto 0 do
    Array.iter
      (fun net ->
        if net >= n_inputs then
          match consumers.(net - n_inputs) with
          | g :: _ when g = gi -> ()
          | l -> consumers.(net - n_inputs) <- gi :: l)
      cgates.(gi).ins
  done;
  let net_po = Array.make n_nets false in
  Array.iter (fun net -> net_po.(net) <- true) po;
  {
    netlist; n_nets; n_inputs; po; cgates; index_of_net; net_names;
    consumers = Array.map Array.of_list consumers; net_po;
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
let consumers t gid = t.consumers.(gid)

(* Evaluate one gate function on word-packed inputs: bit j of the result is
   the function applied to bit j of each input word. *)
let eval_fn fn (input_words : int array) =
  let out = ref 0 in
  Array.iter
    (fun (care, value) ->
      let m = ref (-1) in
      let rec lits i =
        if 1 lsl i <= care then begin
          if care land (1 lsl i) <> 0 then
            m := !m land (if value land (1 lsl i) <> 0 then input_words.(i) else lnot input_words.(i));
          lits (i + 1)
        end
      in
      lits 0;
      out := !out lor !m)
    fn.cubes;
  !out

(* [eval_fn] with the input gather folded into the cube loop: literal i
   reads [nets.(ins.(i))] directly, so evaluating a gate allocates
   nothing (the old hot path built a fresh [Array.map] of input words
   per gate per evaluation). *)
let eval_fn_from fn (ins : int array) (nets : int array) =
  let out = ref 0 in
  Array.iter
    (fun (care, value) ->
      let m = ref (-1) in
      let rec lits i =
        if 1 lsl i <= care then begin
          if care land (1 lsl i) <> 0 then begin
            let w = nets.(ins.(i)) in
            m := !m land (if value land (1 lsl i) <> 0 then w else lnot w)
          end;
          lits (i + 1)
        end
      in
      lits 0;
      out := !out lor !m)
    fn.cubes;
  !out

(* Evaluation scratch state.  All mutable state of an evaluation lives in
   the caller-provided [scratch] buffer: [t] itself is never written after
   [compile], so one compiled netlist can be shared read-only across
   domains — but a scratch buffer must belong to exactly one domain (or
   one call chain); sharing it across domains races on every net value. *)
type scratch = int array

let make_scratch t = Array.make t.n_nets 0

(* [override] substitutes the function of one gate (fault injection).
   Writes every net's word into [scratch] (length [n_nets]). *)
let eval_words_into ?override t ~(scratch : scratch) (pi_words : int array) =
  if Array.length pi_words <> t.n_inputs then invalid_arg "Compiled.eval_words: PI arity";
  if Array.length scratch <> t.n_nets then invalid_arg "Compiled.eval_words_into: scratch size";
  Array.blit pi_words 0 scratch 0 t.n_inputs;
  Array.iter
    (fun cg ->
      let fn =
        match override with
        | Some (gid, fn') when gid = cg.g.id -> fn'
        | _ -> cg.fn
      in
      scratch.(cg.out) <- eval_fn_from fn cg.ins scratch)
    t.cgates

(* --- Event-driven fault injection ------------------------------------------ *)

(* Per-domain state of [eval_fault_into]: a binary min-heap of gate ids
   (ids are topological, so popping the smallest evaluates every gate
   after all of its changed inputs), a stamp per gate marking it queued
   in the current call, and the nets the call overwrote with their good
   words.  Every array is preallocated to the gate count: each gate is
   queued and evaluated at most once per call. *)
type events = {
  heap : int array;
  mutable size : int;
  stamp : int array;
  mutable epoch : int;
  touched : int array;  (* net indices overwritten, in write order *)
  saved : int array;    (* their good words *)
  mutable n_touched : int;
}

let make_events t =
  let n = max 1 (Array.length t.cgates) in
  {
    heap = Array.make n 0;
    size = 0;
    stamp = Array.make n 0;
    epoch = 0;
    touched = Array.make n 0;
    saved = Array.make n 0;
    n_touched = 0;
  }

let push ev g =
  if ev.stamp.(g) <> ev.epoch then begin
    ev.stamp.(g) <- ev.epoch;
    let h = ev.heap in
    let i = ref ev.size in
    ev.size <- ev.size + 1;
    while !i > 0 && h.((!i - 1) / 2) > g do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- g
  end

let pop_min ev =
  let h = ev.heap in
  let top = h.(0) in
  ev.size <- ev.size - 1;
  let n = ev.size in
  if n > 0 then begin
    (* sift the last element down from the root *)
    let last = h.(n) in
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
        if h.(c) < last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- last
  end;
  top

let push_consumers t ev g =
  let cs = t.consumers.(g) in
  for i = 0 to Array.length cs - 1 do
    push ev cs.(i)
  done

(* Write a changed word into [scratch], saving the good word for the
   restore, and return the net's contribution to the output diff. *)
let set_changed t ev (scratch : scratch) net w =
  let good = scratch.(net) in
  ev.touched.(ev.n_touched) <- net;
  ev.saved.(ev.n_touched) <- good;
  ev.n_touched <- ev.n_touched + 1;
  scratch.(net) <- w;
  if t.net_po.(net) then w lxor good else 0

(* Event-driven faulty evaluation (parallel-pattern single-fault
   propagation, Waicukauski et al. 1985).

   [scratch] must hold a completed good-machine evaluation
   ([eval_words_into] on the same PI words); it is used in place as the
   baseline and restored before returning, so one buffer serves any
   number of consecutive fault injections against the same patterns.

   The overridden gate is evaluated first: when its faulty word equals
   the good word on every packed pattern the fault is not activated and
   the call ends there — the common case.  Otherwise its consumers are
   queued, and gates are popped in ascending id order and re-evaluated;
   a gate whose word differs from the good word writes it, ORs the
   difference into the result when its net is a primary output, and
   queues its own consumers.  Propagation stops wherever the faulty
   word equals the good one.  Nets no event reached still hold their
   good words, so the result is bit-identical to a whole-circuit faulty
   evaluation XORed against the good one over all outputs.  Only the
   touched nets are restored.

   [tally], when given, accumulates the gate evaluations performed: 1
   when the fault is not activated, otherwise 1 plus the gates
   re-evaluated, each at most once and all in the fault's transitive
   fanout. *)
let eval_fault_into ?tally t ~override:(gid, fn') ~(scratch : scratch) ~events:ev =
  let cgates = t.cgates in
  let cg0 = cgates.(gid) in
  let faulty0 = eval_fn_from fn' cg0.ins scratch in
  let diff = ref 0 in
  let evaluated = ref 1 in
  if faulty0 <> scratch.(cg0.out) then begin
    ev.size <- 0;
    ev.n_touched <- 0;
    ev.epoch <- ev.epoch + 1;
    diff := set_changed t ev scratch cg0.out faulty0;
    push_consumers t ev gid;
    while ev.size > 0 do
      let g = pop_min ev in
      let cg = cgates.(g) in
      let w = eval_fn_from cg.fn cg.ins scratch in
      incr evaluated;
      if w <> scratch.(cg.out) then begin
        diff := !diff lor set_changed t ev scratch cg.out w;
        push_consumers t ev g
      end
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

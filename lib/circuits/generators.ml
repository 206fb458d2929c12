open Dynmos_util
open Dynmos_cell
open Dynmos_netlist

(* Benchmark circuit generators.

   The paper's own evaluation circuits are lost; these are the standard
   reconstructable workloads its techniques apply to: AND/OR trees with
   extreme detection-probability skew (the PROTEST optimization showcase),
   carry chains (naturally monotone, domino-friendly), decoders and
   comparators (dual-rail), parity (XOR-heavy, the static-glitch foil),
   the classic c17, and seeded random monotone networks. *)

let pi_name i = Fmt.str "x%d" i

(* --- Trees -------------------------------------------------------------- *)

(* Balanced tree of [fanin]-input gates over [n] primary inputs, in any
   technology.  For inverting technologies levels alternate NAND/NOR...;
   we keep the *function* a pure AND (resp. OR) by using De Morgan pairs,
   which keeps detection-probability analysis clean. *)
let tree ~op ~technology ~fanin ~n =
  if fanin < 2 then invalid_arg "Generators.tree: fanin >= 2";
  let name = Fmt.str "t_%s%d_n%d" (match op with `And -> "and" | `Or -> "or") fanin n in
  let b = Netlist.Builder.create name in
  let fresh =
    let k = ref 0 in
    fun () ->
      incr k;
      Fmt.str "t%d" !k
  in
  let pis = List.init n pi_name in
  List.iter (fun p -> ignore (Netlist.Builder.input b p)) pis;
  let inverting = Technology.inverts_transmission technology in
  let inv = if inverting then Some (Stdcells.inv technology) else None in
  let cell k = function
    | `And -> if inverting then Stdcells.nand k technology else Stdcells.and_gate k technology
    | `Or -> if inverting then Stdcells.nor k technology else Stdcells.or_gate k technology
  in
  let rec reduce nets =
    match nets with
    | [ x ] -> x
    | _ ->
        let rec chunk acc cur = function
          | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
          | x :: rest ->
              if List.length cur = fanin - 1 then chunk (List.rev (x :: cur) :: acc) [] rest
              else chunk acc (x :: cur) rest
        in
        let groups = chunk [] [] nets in
        let next =
          List.map
            (fun group ->
              match group with
              | [ single ] -> single
              | _ ->
                  let k = List.length group in
                  let out = Netlist.Builder.add b (cell k op) ~inputs:group ~output:(fresh ()) in
                  if inverting then
                    Netlist.Builder.add b (Option.get inv) ~inputs:[ out ] ~output:(fresh ())
                  else out)
            groups
        in
        reduce next
  in
  let root = reduce pis in
  Netlist.Builder.output b root;
  Netlist.Builder.finish b

let and_tree ?(fanin = 2) ~technology n = tree ~op:`And ~technology ~fanin ~n
let or_tree ?(fanin = 2) ~technology n = tree ~op:`Or ~technology ~fanin ~n

(* --- Carry chain --------------------------------------------------------
   c_{i+1} = g_i + p_i * c_i: monotone, single-rail domino-legal, and the
   classic example of a long sensitized path for delay testing. *)
let carry_chain ~technology n =
  let b = Netlist.Builder.create (Fmt.str "carry%d" n) in
  let ao = Stdcells.ao ~name:(Fmt.str "carrycell_%s" (Technology.to_string technology)) ~groups:[ 1; 2 ] technology in
  let c0 = Netlist.Builder.input b "c0" in
  let gs = List.init n (fun i -> Netlist.Builder.input b (Fmt.str "g%d" i)) in
  let ps = List.init n (fun i -> Netlist.Builder.input b (Fmt.str "p%d" i)) in
  let carry =
    List.fold_left2
      (fun c (i, g) p ->
        ignore i;
        Netlist.Builder.add b ao ~inputs:[ g; p; c ] ~output:(Fmt.str "c%d_out" (i + 1)))
      c0
      (List.mapi (fun i g -> (i, g)) gs)
      ps
  in
  Netlist.Builder.output b carry;
  Netlist.Builder.finish b

(* --- Boolnet-based generators ------------------------------------------ *)

let parity_boolnet n =
  let b = Boolnet.Build.create () in
  let ins = List.init n (fun i -> Boolnet.Build.input b (pi_name i)) in
  let root =
    match ins with
    | [] -> invalid_arg "parity: n >= 1"
    | x :: rest -> List.fold_left (fun acc y -> Boolnet.Build.xor_ b acc y) x rest
  in
  Boolnet.Build.output b "parity" root;
  Boolnet.Build.finish b

let ripple_adder_boolnet n =
  let b = Boolnet.Build.create () in
  let xs = List.init n (fun i -> Boolnet.Build.input b (Fmt.str "a%d" i)) in
  let ys = List.init n (fun i -> Boolnet.Build.input b (Fmt.str "b%d" i)) in
  let cin = Boolnet.Build.input b "cin" in
  let carry = ref cin in
  List.iteri
    (fun i (x, y) ->
      let axb = Boolnet.Build.xor_ b x y in
      let sum = Boolnet.Build.xor_ b axb !carry in
      let c1 = Boolnet.Build.land_ b [ x; y ] in
      let c2 = Boolnet.Build.land_ b [ axb; !carry ] in
      carry := Boolnet.Build.lor_ b [ c1; c2 ];
      Boolnet.Build.output b (Fmt.str "s%d" i) sum)
    (List.combine xs ys);
  Boolnet.Build.output b "cout" !carry;
  Boolnet.Build.finish b

let decoder_boolnet n =
  let b = Boolnet.Build.create () in
  let ins = Array.of_list (List.init n (fun i -> Boolnet.Build.input b (pi_name i))) in
  let negs = Array.map (fun i -> Boolnet.Build.not_ b i) ins in
  for row = 0 to (1 lsl n) - 1 do
    let lits =
      List.init n (fun i -> if (row lsr i) land 1 = 1 then ins.(i) else negs.(i))
    in
    Boolnet.Build.output b (Fmt.str "d%d" row) (Boolnet.Build.land_ b lits)
  done;
  Boolnet.Build.finish b

let equality_boolnet n =
  let b = Boolnet.Build.create () in
  let xs = List.init n (fun i -> Boolnet.Build.input b (Fmt.str "a%d" i)) in
  let ys = List.init n (fun i -> Boolnet.Build.input b (Fmt.str "b%d" i)) in
  let eqs =
    List.map2 (fun x y -> Boolnet.Build.not_ b (Boolnet.Build.xor_ b x y)) xs ys
  in
  Boolnet.Build.output b "eq" (Boolnet.Build.land_ b eqs);
  Boolnet.Build.finish b

(* The ISCAS-85 c17 (6 NAND2 gates, 5 inputs, 2 outputs). *)
let c17_boolnet () =
  let b = Boolnet.Build.create () in
  let nand2 x y = Boolnet.Build.not_ b (Boolnet.Build.land_ b [ x; y ]) in
  let i1 = Boolnet.Build.input b "G1" in
  let i2 = Boolnet.Build.input b "G2" in
  let i3 = Boolnet.Build.input b "G3" in
  let i4 = Boolnet.Build.input b "G4" in
  let i5 = Boolnet.Build.input b "G5" in
  let g6 = nand2 i1 i3 in
  let g7 = nand2 i3 i4 in
  let g8 = nand2 i2 g7 in
  let g9 = nand2 g7 i5 in
  let g10 = nand2 g6 g8 in
  let g11 = nand2 g8 g9 in
  Boolnet.Build.output b "G10" g10;
  Boolnet.Build.output b "G11" g11;
  Boolnet.Build.finish b

let mux_tree_boolnet k =
  (* 2^k data inputs, k selects. *)
  let b = Boolnet.Build.create () in
  let data = Array.of_list (List.init (1 lsl k) (fun i -> Boolnet.Build.input b (Fmt.str "d%d" i))) in
  let sels = Array.of_list (List.init k (fun i -> Boolnet.Build.input b (Fmt.str "s%d" i))) in
  let rec level nodes s =
    if s >= k then nodes
    else
      let sel = sels.(s) in
      let nsel = Boolnet.Build.not_ b sel in
      let next =
        Array.init
          (Array.length nodes / 2)
          (fun i ->
            let lo = nodes.(2 * i) and hi = nodes.((2 * i) + 1) in
            Boolnet.Build.lor_ b
              [ Boolnet.Build.land_ b [ lo; nsel ]; Boolnet.Build.land_ b [ hi; sel ] ])
      in
      level next (s + 1)
  in
  let out = (level data 0).(0) in
  Boolnet.Build.output b "y" out;
  Boolnet.Build.finish b

(* --- Random monotone domino networks ------------------------------------ *)

let random_monotone ?(seed = 42) ~n_inputs ~n_gates ~technology () =
  if Technology.inverts_transmission technology then
    invalid_arg "random_monotone: transmission-preserving technologies only";
  let prng = Prng.create seed in
  let b = Netlist.Builder.create (Fmt.str "rand_s%d_g%d" seed n_gates) in
  let pis = List.init n_inputs pi_name in
  List.iter (fun p -> ignore (Netlist.Builder.input b p)) pis;
  let nets = ref (Array.of_list pis) in
  let used = Hashtbl.create 64 in
  for g = 1 to n_gates do
    let k = 2 + Prng.int prng 2 in
    let pool = !nets in
    let rec pick acc remaining =
      if remaining = 0 then acc
      else
        let cand = Prng.choose prng pool in
        if List.mem cand acc then pick acc remaining else pick (cand :: acc) (remaining - 1)
    in
    let ins = pick [] (min k (Array.length pool)) in
    let k = List.length ins in
    let cell =
      if Prng.bool prng then Stdcells.and_gate k technology else Stdcells.or_gate k technology
    in
    let out = Netlist.Builder.add b cell ~inputs:ins ~output:(Fmt.str "r%d" g) in
    List.iter (fun n -> Hashtbl.replace used n ()) ins;
    nets := Array.append !nets [| out |]
  done;
  (* Every net nobody consumes becomes a primary output. *)
  Array.iter
    (fun n -> if not (Hashtbl.mem used n) && not (List.mem n pis) then Netlist.Builder.output b n)
    !nets;
  Netlist.Builder.finish b

(* Layered random monotone networks with windowed connectivity: [depth]
   layers of [width] AND/OR gates, each gate reading 2-3 nets from the
   previous layer within +/-[window] of its own (scaled) position.  The
   window bounds how fast fanout cones widen (~2*window gates per
   layer), so thousand-to-ten-thousand-gate circuits keep compile-time
   cone tables linear-ish instead of quadratic — the scale the PPSFP
   memory-layout benchmarks need.  [random_monotone]'s uniform
   connectivity gives near-whole-circuit cones past a few hundred
   gates. *)
let random_layered ?(seed = 42) ~n_inputs ~width ~depth ?(window = 8) ~technology () =
  if Technology.inverts_transmission technology then
    invalid_arg "random_layered: transmission-preserving technologies only";
  if n_inputs < 2 then invalid_arg "random_layered: n_inputs >= 2";
  if width < 2 then invalid_arg "random_layered: width >= 2";
  if depth < 1 then invalid_arg "random_layered: depth >= 1";
  if window < 1 then invalid_arg "random_layered: window >= 1";
  let prng = Prng.create seed in
  let b = Netlist.Builder.create (Fmt.str "randl_s%d_w%dx%d" seed width depth) in
  let pis = List.init n_inputs pi_name in
  List.iter (fun p -> ignore (Netlist.Builder.input b p)) pis;
  let used = Hashtbl.create 64 in
  let gate_nets = ref [] in
  let prev = ref (Array.of_list pis) in
  let gid = ref 0 in
  for _d = 1 to depth do
    let pool = !prev in
    let pw = Array.length pool in
    let layer =
      Array.init width (fun j ->
          let center = j * pw / width in
          let lo = max 0 (center - window) and hi = min (pw - 1) (center + window) in
          let span = hi - lo + 1 in
          let k = min span (2 + Prng.int prng 2) in
          let rec pick acc remaining =
            if remaining = 0 then acc
            else
              let cand = pool.(lo + Prng.int prng span) in
              if List.mem cand acc then pick acc remaining
              else pick (cand :: acc) (remaining - 1)
          in
          let ins = pick [] k in
          let k = List.length ins in
          let cell =
            if Prng.bool prng then Stdcells.and_gate k technology
            else Stdcells.or_gate k technology
          in
          incr gid;
          let out = Netlist.Builder.add b cell ~inputs:ins ~output:(Fmt.str "l%d" !gid) in
          List.iter (fun n -> Hashtbl.replace used n ()) ins;
          gate_nets := out :: !gate_nets;
          out)
    in
    prev := layer
  done;
  (* Every gate net nobody consumes becomes a primary output (at least
     the whole final layer). *)
  List.iter
    (fun n -> if not (Hashtbl.mem used n) then Netlist.Builder.output b n)
    (List.rev !gate_nets);
  Netlist.Builder.finish b

(* --- Single paper gates as 1-gate networks ------------------------------ *)

let single_cell cell =
  let b = Netlist.Builder.create ("single_" ^ Cell.name cell) in
  List.iter (fun i -> ignore (Netlist.Builder.input b i)) (Cell.inputs cell);
  let out = Netlist.Builder.add b cell ~inputs:(Cell.inputs cell) ~output:(Cell.output cell) in
  Netlist.Builder.output b out;
  Netlist.Builder.finish b

let fig9_network () = single_cell Stdcells.fig9

(* The Fig. 5 example: a two-level domino network z1 = (i1+i2)*i3. *)
let fig5_network () =
  let b = Netlist.Builder.create "fig5" in
  let i1 = Netlist.Builder.input b "i1" in
  let i2 = Netlist.Builder.input b "i2" in
  let i3 = Netlist.Builder.input b "i3" in
  let or2 = Stdcells.or_gate 2 Technology.Domino_cmos in
  let and2 = Stdcells.and_gate 2 Technology.Domino_cmos in
  let w = Netlist.Builder.add b or2 ~inputs:[ i1; i2 ] ~output:"zint" in
  let z = Netlist.Builder.add b and2 ~inputs:[ w; i3 ] ~output:"z1" in
  Netlist.Builder.output b z;
  Netlist.Builder.finish b

(* Wide AND in a given technology: the detection-probability pathology
   (output s-a-0 needs the all-ones vector) used by the PROTEST
   optimization experiment. *)
let wide_and ~technology n = and_tree ~fanin:4 ~technology n

let parity ~style n =
  let bn = parity_boolnet n in
  match style with
  | `Static -> Boolnet.to_static ~name:(Fmt.str "parity%d_static" n) bn
  | `Domino -> Boolnet.to_domino_dual_rail ~name:(Fmt.str "parity%d_domino" n) bn

let ripple_adder ~style n =
  let bn = ripple_adder_boolnet n in
  match style with
  | `Static -> Boolnet.to_static ~name:(Fmt.str "adder%d_static" n) bn
  | `Domino -> Boolnet.to_domino_dual_rail ~name:(Fmt.str "adder%d_domino" n) bn

let decoder ~style n =
  let bn = decoder_boolnet n in
  match style with
  | `Static -> Boolnet.to_static ~name:(Fmt.str "dec%d_static" n) bn
  | `Domino -> Boolnet.to_domino_dual_rail ~name:(Fmt.str "dec%d_domino" n) bn

let equality ~style n =
  let bn = equality_boolnet n in
  match style with
  | `Static -> Boolnet.to_static ~name:(Fmt.str "eq%d_static" n) bn
  | `Domino -> Boolnet.to_domino_dual_rail ~name:(Fmt.str "eq%d_domino" n) bn

let c17 ~style () =
  let bn = c17_boolnet () in
  match style with
  | `Static -> Boolnet.to_static ~name:"c17_static" bn
  | `Domino -> Boolnet.to_domino_dual_rail ~name:"c17_domino" bn

let mux_tree ~style k =
  let bn = mux_tree_boolnet k in
  match style with
  | `Static -> Boolnet.to_static ~name:(Fmt.str "mux%d_static" k) bn
  | `Domino -> Boolnet.to_domino_dual_rail ~name:(Fmt.str "mux%d_domino" k) bn

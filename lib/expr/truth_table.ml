(* Dense truth tables.

   A table holds one bit per input row; variable [vars.(i)] is bit [i] of
   the row index.  Cell functions in this project have at most a dozen or so
   inputs, so dense tables are both the simplest and the fastest complete
   representation: semantic equality, ON-set counting, weighted probability
   and fault-detection counting are all linear scans. *)

let max_vars = 22

type t = { vars : string array; bits : Bytes.t }

exception Too_many_vars of int

let n_vars t = Array.length t.vars
let n_rows t = 1 lsl n_vars t
let vars t = t.vars

let check_vars vars =
  let n = Array.length vars in
  if n > max_vars then raise (Too_many_vars n);
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      if Hashtbl.mem seen v then invalid_arg ("Truth_table: duplicate variable " ^ v);
      Hashtbl.add seen v ())
    vars

let get t row = Char.code (Bytes.unsafe_get t.bits (row lsr 3)) land (1 lsl (row land 7)) <> 0

let set t row b =
  let i = row lsr 3 in
  let mask = 1 lsl (row land 7) in
  let cur = Char.code (Bytes.get t.bits i) in
  Bytes.set t.bits i (Char.chr (if b then cur lor mask else cur land lnot mask))

let create vars f =
  check_vars vars;
  let n = Array.length vars in
  let rows = 1 lsl n in
  let t = { vars; bits = Bytes.make ((rows + 7) / 8) '\000' } in
  for row = 0 to rows - 1 do
    set t row (f row)
  done;
  t

let of_expr ?vars e =
  let vars =
    match vars with Some vs -> vs | None -> Array.of_list (Expr.support e)
  in
  check_vars vars;
  let index = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace index v i) vars;
  let lookup row v =
    match Hashtbl.find_opt index v with
    | Some i -> (row lsr i) land 1 = 1
    | None -> invalid_arg ("Truth_table.of_expr: free variable " ^ v)
  in
  create vars (fun row -> Expr.eval (lookup row) e)

let equal a b =
  Array.length a.vars = Array.length b.vars
  && Array.for_all2 String.equal a.vars b.vars
  && Bytes.equal a.bits b.bits

let equal_exprs ?vars a b =
  let vars =
    match vars with
    | Some vs -> vs
    | None ->
        let module S = Set.Make (String) in
        Array.of_list
          (S.elements (S.union (S.of_list (Expr.support a)) (S.of_list (Expr.support b))))
  in
  equal (of_expr ~vars a) (of_expr ~vars b)

let count_true t =
  let n = ref 0 in
  for row = 0 to n_rows t - 1 do
    if get t row then incr n
  done;
  !n

let is_const t =
  let c = count_true t in
  if c = 0 then Some false else if c = n_rows t then Some true else None

let minterms t =
  let acc = ref [] in
  for row = n_rows t - 1 downto 0 do
    if get t row then acc := row :: !acc
  done;
  !acc

let map2 op a b =
  if not (Array.length a.vars = Array.length b.vars && Array.for_all2 String.equal a.vars b.vars)
  then invalid_arg "Truth_table.map2: variable orderings differ";
  create a.vars (fun row -> op (get a row) (get b row))

let xor_tables = map2 ( <> )
let and_tables = map2 ( Stdlib.( && ) )
let or_tables = map2 ( Stdlib.( || ) )
let not_table t = create t.vars (fun row -> not (get t row))

let prob ?weights t =
  let n = n_vars t in
  let w =
    match weights with
    | Some w ->
        if Array.length w <> n then invalid_arg "Truth_table.prob: weight arity";
        w
    | None -> Array.make n 0.5
  in
  let total = ref 0.0 in
  for row = 0 to n_rows t - 1 do
    if get t row then begin
      let p = ref 1.0 in
      for i = 0 to n - 1 do
        p := !p *. (if (row lsr i) land 1 = 1 then w.(i) else 1.0 -. w.(i))
      done;
      total := !total +. !p
    end
  done;
  !total

let detection_prob ?weights ~good ~faulty () = prob ?weights (xor_tables good faulty)

let pp ppf t =
  let n = n_vars t in
  Fmt.pf ppf "%s | f@." (String.concat " " (Array.to_list t.vars));
  for row = 0 to n_rows t - 1 do
    for i = 0 to n - 1 do
      Fmt.pf ppf "%d " ((row lsr i) land 1)
    done;
    Fmt.pf ppf "| %d@." (if get t row then 1 else 0)
  done

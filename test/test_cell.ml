open Dynmos_expr
open Dynmos_cell

(* Tests for technologies, cell elaboration, the cell-description parser
   and the standard-cell library. *)

let check = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

let e = Parse.expr
let equal_fn = Truth_table.equal_exprs

(* --- Technology ------------------------------------------------------------ *)

let test_technology_names () =
  List.iter
    (fun t ->
      match Technology.of_string (Technology.to_string t) with
      | Some t' -> check "roundtrip" true (t = t')
      | None -> Alcotest.fail "technology name does not round-trip")
    Technology.all;
  check "case insensitive" true (Technology.of_string "DOMINO-cmos" = Some Technology.Domino_cmos);
  check "underscores" true (Technology.of_string "dynamic_nMOS" = Some Technology.Dynamic_nmos);
  check "plain nmos" true (Technology.of_string "nMOS" = Some Technology.Nmos_pulldown);
  check "unknown" true (Technology.of_string "ttl" = None)

let test_technology_classes () =
  check "domino dynamic" true (Technology.is_dynamic Technology.Domino_cmos);
  check "dynamic nmos dynamic" true (Technology.is_dynamic Technology.Dynamic_nmos);
  check "static not dynamic" false (Technology.is_dynamic Technology.Static_cmos);
  check "domino preserves T" false (Technology.inverts_transmission Technology.Domino_cmos);
  check "dynamic nmos inverts" true (Technology.inverts_transmission Technology.Dynamic_nmos);
  check "static cmos inverts" true (Technology.inverts_transmission Technology.Static_cmos)

(* --- Elaboration ------------------------------------------------------------ *)

let test_make_fig9 () =
  let c = Stdcells.fig9 in
  check_s "name" "fig9" (Cell.name c);
  check_i "arity" 5 (Cell.arity c);
  check_i "transistors" 5 (Cell.n_transistors c);
  check "logic is T" true (equal_fn (Cell.logic c) (e "a*(b+c)+d*e"));
  check "network expr" true (equal_fn (Cell.network_expr c) (e "a*(b+c)+d*e"))

let test_inverting_logic () =
  let nand2 = Stdcells.nand 2 Technology.Static_cmos in
  check "nand logic" true (equal_fn (Cell.logic nand2) (e "!(a*b)"));
  let nor2 = Stdcells.nor 2 Technology.Dynamic_nmos in
  check "dynamic nor logic" true (equal_fn (Cell.logic nor2) (e "!(a+b)"));
  let and2 = Stdcells.and_gate 2 Technology.Domino_cmos in
  check "domino and logic" true (equal_fn (Cell.logic and2) (e "a*b"))

let test_make_errors () =
  let fails f = match f () with _ -> false | exception Cell.Invalid _ -> true in
  check "no inputs" true
    (fails (fun () ->
         Cell.make ~technology:Technology.Domino_cmos ~inputs:[] ~output:"z" [ ("z", e "1") ]));
  check "output unassigned" true
    (fails (fun () ->
         Cell.make ~technology:Technology.Domino_cmos ~inputs:[ "a" ] ~output:"z"
           [ ("w", e "a") ]));
  check "double assignment" true
    (fails (fun () ->
         Cell.make ~technology:Technology.Domino_cmos ~inputs:[ "a" ] ~output:"z"
           [ ("z", e "a"); ("z", e "a") ]));
  check "assignment to input" true
    (fails (fun () ->
         Cell.make ~technology:Technology.Domino_cmos ~inputs:[ "a" ] ~output:"z"
           [ ("a", e "a"); ("z", e "a") ]));
  check "undefined signal" true
    (fails (fun () ->
         Cell.make ~technology:Technology.Domino_cmos ~inputs:[ "a" ] ~output:"z"
           [ ("z", e "a*q") ]));
  check "duplicate signals" true
    (fails (fun () ->
         Cell.make ~technology:Technology.Domino_cmos ~inputs:[ "a"; "a" ] ~output:"z"
           [ ("z", e "a") ]));
  check "constant function" true
    (fails (fun () ->
         Cell.make ~technology:Technology.Bipolar ~inputs:[ "a" ] ~output:"z"
           [ ("z", Expr.xor (e "a") (e "a")) ]))

let test_intermediate_nets () =
  let c =
    Cell.make ~technology:Technology.Domino_cmos ~inputs:[ "a"; "b"; "c" ] ~output:"z"
      [ ("x", e "a*b"); ("y", e "x+c"); ("z", e "y*a") ]
  in
  check "nets inlined" true (equal_fn (Cell.logic c) (e "(a*b+c)*a"))

let test_of_logic () =
  (* Building from the desired logic function for an inverting technology
     derives the complementary network. *)
  let c =
    Cell.of_logic ~technology:Technology.Static_cmos ~inputs:[ "a"; "b" ] ~output:"z"
      (e "!(a*b)")
  in
  check "logic preserved" true (equal_fn (Cell.logic c) (e "!(a*b)"));
  check "network is a*b" true (equal_fn (Cell.network_expr c) (e "a*b"));
  let d =
    Cell.of_logic ~technology:Technology.Domino_cmos ~inputs:[ "a"; "b" ] ~output:"z" (e "a+b")
  in
  check "domino direct" true (equal_fn (Cell.network_expr d) (e "a+b"))

let test_eval_table () =
  let c = Stdcells.fig9 in
  let env = function "a" -> true | "b" -> false | "c" -> true | _ -> false in
  check "eval" true (Cell.eval c env);
  let tt = Cell.logic_table c in
  check_i "table vars" 5 (Truth_table.n_vars tt);
  (* row a=1,c=1 -> index bit0(a)=1, bit2(c)=1 -> 5 *)
  check "table value" true (Truth_table.get tt 0b00101)

(* --- Parser ------------------------------------------------------------------ *)

let test_parse_fig9 () =
  let c = Cell_parser.cell Stdcells.fig9_text in
  check_s "name from NAME" "fig9" (Cell.name c);
  check "same logic as stdcell" true (equal_fn (Cell.logic c) (Cell.logic Stdcells.fig9));
  Alcotest.(check (list string)) "inputs" [ "a"; "b"; "c"; "d"; "e" ] (Cell.inputs c);
  check_s "output" "u" (Cell.output c)

let test_parse_multiple () =
  let text =
    "TECHNOLOGY domino-CMOS;\nINPUT a,b;\nOUTPUT z;\nz := a*b;\n\
     TECHNOLOGY dynamic-nMOS;\nINPUT x,y;\nOUTPUT w;\nw := x+y;\n"
  in
  let cells = Cell_parser.cells text in
  check_i "two cells" 2 (List.length cells);
  (match cells with
  | [ c1; c2 ] ->
      check "first domino" true (Cell.technology c1 = Technology.Domino_cmos);
      check "second dynamic" true (Cell.technology c2 = Technology.Dynamic_nmos);
      check "second logic inverted" true (equal_fn (Cell.logic c2) (e "!(x+y)"))
  | _ -> Alcotest.fail "expected two cells")

let test_parse_comments () =
  let text =
    "# leading comment\nTECHNOLOGY domino-CMOS; -- trailing\nINPUT a,b; # note\nOUTPUT z;\n\
     z := a*b; -- done\n"
  in
  let c = Cell_parser.cell text in
  check "comments stripped" true (equal_fn (Cell.logic c) (e "a*b"))

let test_parse_errors () =
  let fails s = match Cell_parser.cells s with _ -> false | exception Cell_parser.Error _ -> true in
  check "no technology" true (fails "INPUT a;\nOUTPUT z;\nz := a;\n");
  check "unknown technology" true (fails "TECHNOLOGY ttl;\nINPUT a;\nOUTPUT z;\nz := a;\n");
  check "bad statement" true (fails "TECHNOLOGY domino-CMOS;\nFOO bar;\n");
  check "bad expression" true
    (fails "TECHNOLOGY domino-CMOS;\nINPUT a;\nOUTPUT z;\nz := a+*;\n");
  check "missing output stmt" true (fails "TECHNOLOGY domino-CMOS;\nINPUT a;\nz := a;\n");
  (* elaboration errors and over-wide cells are reported the same way *)
  check "undefined signal" true
    (fails "TECHNOLOGY domino-CMOS;\nINPUT a,b;\nOUTPUT u;\nu := a*c;\n");
  check "net assigned twice" true
    (fails "TECHNOLOGY domino-CMOS;\nINPUT a,b;\nOUTPUT u;\nu := a;\nu := b;\n");
  check "output never assigned" true
    (fails "TECHNOLOGY domino-CMOS;\nINPUT a,b;\nOUTPUT u;\nx := a*b;\n");
  (let inputs = List.init 40 (Fmt.str "i%d") in
   check "40 inputs" true
     (fails
        (Fmt.str "TECHNOLOGY domino-CMOS;\nINPUT %s;\nOUTPUT u;\nu := %s;\n"
           (String.concat "," inputs) (String.concat "*" inputs))));
  check "empty" true (fails "");
  check "single-cell check" true
    (match
       Cell_parser.cell
         "TECHNOLOGY domino-CMOS;\nINPUT a;\nOUTPUT z;\nz := a;\n\
          TECHNOLOGY domino-CMOS;\nINPUT b;\nOUTPUT y;\ny := b;\n"
     with
    | _ -> false
    | exception Cell_parser.Error _ -> true)

let test_pp_roundtrip () =
  let c = Stdcells.fig9 in
  let printed = Fmt.str "%a" Cell.pp c in
  let reparsed = Cell_parser.cell printed in
  check "pp/parse roundtrip preserves logic" true
    (equal_fn (Cell.logic reparsed) (Cell.logic c))

(* Seeded mutation fuzzer over the parser: byte flips, truncation,
   duplicated statements and deep "(a*" nesting, applied to fig9's text
   and two small cells.  Every input must parse to cells or raise
   [Cell_parser.Error]; any other exception fails the property. *)
let fuzz_bases =
  [
    Stdcells.fig9_text;
    "TECHNOLOGY dynamic-nMOS;\nNAME nor3;\nINPUT a,b,c;\nOUTPUT z;\nz := a+b+c;\n";
    "TECHNOLOGY static-CMOS;\nINPUT x,y;\nOUTPUT w;\nt := x*y;\nw := t+!x^y; -- xor\n";
  ]

let gen_mutated_cell_text =
  let open QCheck2.Gen in
  let syntax = "abcdexyzu;:=*+^!/()#-, \n01TNIOP" in
  let byte = oneof [ map (String.get syntax) (int_bound (String.length syntax - 1)); char ] in
  let flip s =
    if s = "" then return s
    else
      let* i = int_bound (String.length s - 1) and* c = byte in
      return (String.mapi (fun j x -> if j = i then c else x) s)
  in
  let truncate s = map (fun i -> String.sub s 0 i) (int_bound (String.length s)) in
  let duplicate s =
    let stmts = String.split_on_char ';' s in
    let+ i = int_bound (List.length stmts - 1) in
    String.concat ";" (List.concat (List.mapi (fun j x -> if j = i then [ x; x ] else [ x ]) stmts))
  in
  let nest s =
    let+ i = int_bound (String.length s) and+ depth = int_range 1 3000 and+ closed = bool in
    let opening = String.concat "" (List.init depth (fun _ -> "(a*")) in
    let closing = if closed then "b" ^ String.make depth ')' else "" in
    String.sub s 0 i ^ opening ^ closing ^ String.sub s i (String.length s - i)
  in
  let rec mutations k s =
    if k = 0 then return s else oneof [ flip s; truncate s; duplicate s; nest s ] >>= mutations (k - 1)
  in
  let* base = oneofl fuzz_bases and* k = int_range 1 4 in
  mutations k base

let qcheck_parser_fuzz =
  QCheck2.Test.make ~name:"mutated cell text: cells or Cell_parser.Error" ~count:2000
    ~print:String.escaped gen_mutated_cell_text (fun text ->
      match Cell_parser.cells text with _ -> true | exception Cell_parser.Error _ -> true)

(* --- Standard cells ----------------------------------------------------------- *)

let test_stdcells_families () =
  check "nand3" true
    (equal_fn (Cell.logic (Stdcells.nand 3 Technology.Static_cmos)) (e "!(a*b*c)"));
  check "nor3" true
    (equal_fn (Cell.logic (Stdcells.nor 3 Technology.Nmos_pulldown)) (e "!(a+b+c)"));
  check "or4 domino" true
    (equal_fn (Cell.logic (Stdcells.or_gate 4 Technology.Domino_cmos)) (e "a+b+c+d"));
  check "inv" true (equal_fn (Cell.logic (Stdcells.inv Technology.Static_cmos)) (e "!a"));
  check "buf domino" true (equal_fn (Cell.logic (Stdcells.buf Technology.Domino_cmos)) (e "a"));
  check "ao22" true
    (equal_fn (Cell.logic (Stdcells.ao ~groups:[ 2; 2 ] Technology.Domino_cmos)) (e "a*b+c*d"));
  check "ao12" true
    (equal_fn (Cell.logic (Stdcells.ao ~groups:[ 1; 2 ] Technology.Domino_cmos)) (e "a+b*c"));
  check "oa22" true
    (equal_fn (Cell.logic (Stdcells.oa ~groups:[ 2; 2 ] Technology.Domino_cmos)) (e "(a+b)*(c+d)"));
  check "aoi21" true
    (equal_fn (Cell.logic (Stdcells.ao ~groups:[ 2; 1 ] Technology.Static_cmos)) (e "!(a*b+c)"));
  check "mux dual rail" true
    (equal_fn
       (Cell.logic (Stdcells.mux2_dual_rail Technology.Domino_cmos))
       (e "d0*sn+d1*s"))

let test_stdcells_guards () =
  let fails f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check "nand needs inverting" true (fails (fun () -> Stdcells.nand 2 Technology.Domino_cmos));
  check "and needs preserving" true (fails (fun () -> Stdcells.and_gate 2 Technology.Static_cmos));
  check "buf needs preserving" true (fails (fun () -> Stdcells.buf Technology.Static_cmos));
  check "fan-in bound" true (fails (fun () -> Stdcells.nand 20 Technology.Static_cmos))

let test_fig1_fig2 () =
  check "fig1 NOR logic" true (equal_fn (Cell.logic Stdcells.fig1_nor) (e "!(a+b)"));
  check "fig2 inverter logic" true (equal_fn (Cell.logic Stdcells.fig2_inverter) (e "!a"))

let () =
  Alcotest.run "cell"
    [
      ( "technology",
        [
          Alcotest.test_case "name parsing" `Quick test_technology_names;
          Alcotest.test_case "classification" `Quick test_technology_classes;
        ] );
      ( "elaboration",
        [
          Alcotest.test_case "fig9" `Quick test_make_fig9;
          Alcotest.test_case "inverting technologies" `Quick test_inverting_logic;
          Alcotest.test_case "errors" `Quick test_make_errors;
          Alcotest.test_case "intermediate nets" `Quick test_intermediate_nets;
          Alcotest.test_case "of_logic" `Quick test_of_logic;
          Alcotest.test_case "eval and table" `Quick test_eval_table;
        ] );
      ( "parser",
        [
          Alcotest.test_case "fig9 text" `Quick test_parse_fig9;
          Alcotest.test_case "multiple cells" `Quick test_parse_multiple;
          Alcotest.test_case "comments" `Quick test_parse_comments;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |]) qcheck_parser_fuzz;
        ] );
      ( "stdcells",
        [
          Alcotest.test_case "families" `Quick test_stdcells_families;
          Alcotest.test_case "guards" `Quick test_stdcells_guards;
          Alcotest.test_case "paper cells" `Quick test_fig1_fig2;
        ] );
    ]

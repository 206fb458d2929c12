open Dynmos_expr

(* Parser for cell description files in the paper's syntax.

   A file contains one or more cells; each cell starts with a TECHNOLOGY
   statement:

     TECHNOLOGY domino-CMOS;
     NAME fig9;                -- optional
     INPUT a,b,c,d,e;
     OUTPUT u;
     x1 := a*(b+c);
     x2 := d*e;
     u  := x1+x2;

   Statements are ';'-terminated; '#' and '--' introduce line comments.
   Keywords are case-insensitive.  Expressions use the [Parse] grammar. *)

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let strip_comments text =
  String.concat "\n"
    (List.map
       (fun line ->
         let cut i = String.sub line 0 i in
         let hash = String.index_opt line '#' in
         let dash =
           let rec find i =
             if i + 1 >= String.length line then None
             else if line.[i] = '-' && line.[i + 1] = '-' then Some i
             else find (i + 1)
           in
           find 0
         in
         match (hash, dash) with
         | None, None -> line
         | Some i, None | None, Some i -> cut i
         | Some i, Some j -> cut (min i j))
       (String.split_on_char '\n' text))

let statements text =
  strip_comments text
  |> String.split_on_char ';'
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

type stmt =
  | Technology of Technology.t
  | Name of string
  | Input of string list
  | Output of string
  | Assign of string * Expr.t

let split_keyword s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

let parse_stmt s =
  match String.index_opt s ':' with
  | Some i when i + 1 < String.length s && s.[i + 1] = '=' ->
      let lhs = String.trim (String.sub s 0 i) in
      let rhs = String.sub s (i + 2) (String.length s - i - 2) in
      if lhs = "" then error "assignment with empty left-hand side: %S" s;
      let e = try Parse.expr rhs with Parse.Error { message; _ } -> error "in %S: %s" s message in
      Assign (lhs, e)
  | _ -> (
      let kw, rest = split_keyword s in
      match String.uppercase_ascii kw with
      | "TECHNOLOGY" -> (
          match Technology.of_string rest with
          | Some t -> Technology t
          | None -> error "unknown technology %S" rest)
      | "NAME" -> Name rest
      | "INPUT" | "INPUTS" ->
          Input (List.filter (fun s -> s <> "") (List.map String.trim (String.split_on_char ',' rest)))
      | "OUTPUT" -> Output rest
      | _ -> error "unrecognized statement %S" s)

(* Group the statement stream into cells: a TECHNOLOGY statement opens a
   new cell. *)
let cells text =
  let stmts = List.map parse_stmt (statements text) in
  let finish (tech, name, inputs, output, assigns) =
    match (tech, inputs, output) with
    | None, _, _ -> error "cell without TECHNOLOGY statement"
    | _, None, _ -> error "cell without INPUT statement"
    | _, _, None -> error "cell without OUTPUT statement"
    | Some technology, Some inputs, Some output -> (
        (* A cell that does not elaborate, or is too wide for a truth
           table, is as malformed as a syntax error: report it as one. *)
        let label = Option.value name ~default:output in
        let n = List.length inputs in
        if n > Truth_table.max_vars then
          error "cell %s: %d inputs, at most %d are supported" label n Truth_table.max_vars;
        try Cell.make ?name ~technology ~inputs ~output (List.rev assigns)
        with Cell.Invalid msg -> error "cell %s: %s" label msg)
  in
  let rec go acc current = function
    | [] -> ( match current with None -> List.rev acc | Some c -> List.rev (finish c :: acc))
    | Technology t :: rest -> (
        match current with
        | None -> go acc (Some (Some t, None, None, None, [])) rest
        | Some c -> go (finish c :: acc) (Some (Some t, None, None, None, [])) rest)
    | stmt :: rest -> (
        match current with
        | None -> error "statement before any TECHNOLOGY statement"
        | Some (tech, name, inputs, output, assigns) ->
            let current =
              match stmt with
              | Name n -> (tech, Some n, inputs, output, assigns)
              | Input is -> (tech, name, Some is, output, assigns)
              | Output o -> (tech, name, inputs, Some o, assigns)
              | Assign (n, e) -> (tech, name, inputs, output, (n, e) :: assigns)
              | Technology _ ->
                  (* TECHNOLOGY statements are consumed by the outer match
                     to open a new cell; if one reaches the in-cell merge
                     the statement stream is malformed — say so instead of
                     killing the process on an assertion. *)
                  error "TECHNOLOGY statement must open a new cell, not appear inside one"
            in
            go acc (Some current) rest)
  in
  match go [] None stmts with
  | [] -> error "no cells in input"
  | cs -> cs

let cell text =
  match cells text with
  | [ c ] -> c
  | cs -> error "expected exactly one cell, found %d" (List.length cs)

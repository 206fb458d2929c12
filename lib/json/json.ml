(* Strict recursive-descent JSON, sized for one-line requests.  See the
   interface for the hardening constraints; the implementation raises a
   private [Fail] internally and converts it to [Error] at the single
   entry point, so [parse] is total. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let max_depth = 64

exception Fail of string

(* --- Parsing ---------------------------------------------------------------- *)

type st = { s : string; mutable pos : int }

let fail st fmt =
  Printf.ksprintf (fun msg -> raise (Fail (Printf.sprintf "%s at offset %d" msg st.pos))) fmt

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && (match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some x when x = c -> st.pos <- st.pos + 1
  | Some x -> fail st "expected '%c', found '%c'" c x
  | None -> fail st "expected '%c', found end of input" c

let literal st lit v =
  String.iter (fun c -> expect st c) lit;
  v

(* Append a Unicode scalar value as UTF-8. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  let digit () =
    match peek st with
    | Some ('0' .. '9' as c) -> st.pos <- st.pos + 1; Char.code c - Char.code '0'
    | Some ('a' .. 'f' as c) -> st.pos <- st.pos + 1; Char.code c - Char.code 'a' + 10
    | Some ('A' .. 'F' as c) -> st.pos <- st.pos + 1; Char.code c - Char.code 'A' + 10
    | _ -> fail st "bad \\u escape (need four hex digits)"
  in
  let a = digit () in
  let b = digit () in
  let c = digit () in
  let d = digit () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
        st.pos <- st.pos + 1;
        (match peek st with
        | Some '"' -> st.pos <- st.pos + 1; Buffer.add_char buf '"'
        | Some '\\' -> st.pos <- st.pos + 1; Buffer.add_char buf '\\'
        | Some '/' -> st.pos <- st.pos + 1; Buffer.add_char buf '/'
        | Some 'b' -> st.pos <- st.pos + 1; Buffer.add_char buf '\b'
        | Some 'f' -> st.pos <- st.pos + 1; Buffer.add_char buf '\012'
        | Some 'n' -> st.pos <- st.pos + 1; Buffer.add_char buf '\n'
        | Some 'r' -> st.pos <- st.pos + 1; Buffer.add_char buf '\r'
        | Some 't' -> st.pos <- st.pos + 1; Buffer.add_char buf '\t'
        | Some 'u' ->
            st.pos <- st.pos + 1;
            let cp = hex4 st in
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* High surrogate: the pair is mandatory. *)
              expect st '\\';
              expect st 'u';
              let lo = hex4 st in
              if lo < 0xDC00 || lo > 0xDFFF then fail st "high surrogate without low surrogate";
              add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then fail st "lone low surrogate"
            else add_utf8 buf cp
        | _ -> fail st "bad escape");
        go ()
    | Some c when Char.code c < 0x20 ->
        fail st "raw control character 0x%02x in string" (Char.code c)
    | Some c ->
        st.pos <- st.pos + 1;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

(* JSON number grammar: '-'? int frac? exp?, int = 0 | [1-9][0-9]*.
   Parsed as Int when the literal is integral and round-trips through
   [int_of_string]; Float otherwise (huge literals overflow to infinity,
   left for field validation to reject by name). *)
let parse_number st =
  let start = st.pos in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  (match peek st with
  | Some '0' -> st.pos <- st.pos + 1
  | Some '1' .. '9' ->
      while (match peek st with Some '0' .. '9' -> true | _ -> false) do
        st.pos <- st.pos + 1
      done
  | _ -> fail st "expected a digit");
  let integral = ref true in
  if peek st = Some '.' then begin
    integral := false;
    st.pos <- st.pos + 1;
    (match peek st with Some '0' .. '9' -> () | _ -> fail st "expected a digit after '.'");
    while (match peek st with Some '0' .. '9' -> true | _ -> false) do
      st.pos <- st.pos + 1
    done
  end;
  (match peek st with
  | Some ('e' | 'E') ->
      integral := false;
      st.pos <- st.pos + 1;
      (match peek st with Some ('+' | '-') -> st.pos <- st.pos + 1 | _ -> ());
      (match peek st with Some '0' .. '9' -> () | _ -> fail st "expected an exponent digit");
      while (match peek st with Some '0' .. '9' -> true | _ -> false) do
        st.pos <- st.pos + 1
      done
  | _ -> ());
  let lit = String.sub st.s start (st.pos - start) in
  if !integral then
    match int_of_string_opt lit with
    | Some n -> Int n
    | None -> Float (float_of_string lit)  (* overflows to +/- infinity *)
  else Float (float_of_string lit)

let rec parse_value st depth =
  if depth > max_depth then fail st "nesting deeper than %d" max_depth;
  skip_ws st;
  match peek st with
  | None -> fail st "expected a value, found end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then (st.pos <- st.pos + 1; List [])
      else begin
        let items = ref [] in
        let rec elems () =
          items := parse_value st (depth + 1) :: !items;
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; elems ()
          | Some ']' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or ']'"
        in
        elems ();
        List (List.rev !items)
      end
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then (st.pos <- st.pos + 1; Obj [])
      else begin
        let fields = ref [] in
        (* A hash set, not a scan of [fields]: a line of n distinct keys
           would otherwise cost n^2/2 string compares. *)
        let seen = Hashtbl.create 8 in
        let rec members () =
          skip_ws st;
          let k = parse_string st in
          if Hashtbl.mem seen k then fail st "duplicate key %S" k;
          Hashtbl.replace seen k ();
          skip_ws st;
          expect st ':';
          let v = parse_value st (depth + 1) in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; members ()
          | Some '}' -> st.pos <- st.pos + 1
          | _ -> fail st "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some c -> fail st "unexpected character '%s'" (Char.escaped c)

let parse s =
  let st = { s; pos = 0 } in
  match
    let v = parse_value st 0 in
    skip_ws st;
    if st.pos <> String.length s then fail st "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* --- Printing --------------------------------------------------------------- *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_into buf f =
  if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
  else if Float.is_nan f then Buffer.add_string buf "\"nan\""
  else Buffer.add_string buf (if f > 0.0 then "\"inf\"" else "\"-inf\"")

let rec value_into buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> float_into buf f
  | String s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          value_into buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          value_into buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  value_into buf v;
  Buffer.contents buf

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

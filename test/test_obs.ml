open Dynmos_obs

(* Tests for the observability substrate: JSONL encoding, sinks, the
   disabled recorder.  A minimal recursive-descent JSON
   checker validates well-formedness (the repo deliberately carries no
   JSON library, so the encoder's output is checked from first
   principles). *)

let check = Alcotest.(check bool)
let check_i = Alcotest.(check int)
let check_s = Alcotest.(check string)

(* --- A tiny JSON well-formedness checker ----------------------------------- *)

exception Bad of string

let validate_json (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d in %s" msg !pos s)) in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r') do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal lit =
    String.iter expect lit
  in
  let string_ () =
    expect '"';
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance (); closed := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control character in string"
      | Some _ -> advance ()
    done
  in
  let number () =
    if peek () = Some '-' then advance ();
    let digits () =
      let seen = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            seen := true;
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if not !seen then fail "expected digits"
    in
    digits ();
    if peek () = Some '.' then (advance (); digits ());
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ())
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> object_ ()
    | Some '[' -> array_ ()
    | Some '"' -> string_ ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value"
  and object_ () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_ ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ()
        | Some '}' -> advance ()
        | _ -> fail "expected , or }"
      in
      members ()
  and array_ () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elements () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); elements ()
        | Some ']' -> advance ()
        | _ -> fail "expected , or ]"
      in
      elements ()
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let is_valid_json s =
  match validate_json s with () -> true | exception Bad _ -> false

let test_validator_sanity () =
  check "accepts object" true (is_valid_json {|{"a": 1, "b": [true, null, "x"]}|});
  check "rejects trailing" false (is_valid_json {|{"a": 1} x|});
  check "rejects bare key" false (is_valid_json {|{a: 1}|});
  check "rejects unterminated" false (is_valid_json {|{"a": "b|})

(* --- json_line -------------------------------------------------------------- *)

let ev ?(ts = 12.5) ?(name = "test") fields = { Obs.ts; ev = name; fields }

let tricky =
  ev
    [
      ("plain", Obs.String "hello");
      ("quote", Obs.String {|say "hi"|});
      ("backslash", Obs.String {|a\b|});
      ("newline", Obs.String "line1\nline2");
      ("control", Obs.String "\x01\x1f");
      ("unicode_bytes", Obs.String "caf\xc3\xa9");
      ("neg", Obs.Int (-42));
      ("float", Obs.Float 1.5e-3);
      ("bool", Obs.Bool true);
    ]

let nonfinite = ev [ ("a", Obs.Float Float.nan); ("b", Obs.Float infinity) ]

let test_json_line_valid () =
  let line = Obs.json_line tricky in
  check "tricky event encodes to valid JSON" true (is_valid_json line);
  check "single line" false (String.contains line '\n')

let test_json_line_nonfinite () =
  check "non-finite floats still valid JSON" true (is_valid_json (Obs.json_line nonfinite))

(* The exact bytes of the encoder: escapes, raw UTF-8 passthrough,
   %.17g floats and the string spelling of non-finite floats. *)
let test_json_line_shape () =
  let line = Obs.json_line (ev ~ts:2.0 ~name:"e" [ ("k", Obs.Int 7) ]) in
  check_s "exact shape" {|{"ts":2,"ev":"e","k":7}|} line;
  check_s "tricky bytes"
    ({|{"ts":12.5,"ev":"test","plain":"hello","quote":"say \"hi\"","backslash":"a\\b",|}
    ^ {|"newline":"line1\nline2","control":"\u0001\u001f","unicode_bytes":"caf|}
    ^ "\xc3\xa9" ^ {|","neg":-42,"float":0.0015,"bool":true}|})
    (Obs.json_line tricky);
  check_s "non-finite bytes" {|{"ts":12.5,"ev":"test","a":"nan","b":"inf"}|}
    (Obs.json_line nonfinite);
  check_s "negative infinity" {|{"ts":12.5,"ev":"test","c":"-inf"}|}
    (Obs.json_line (ev [ ("c", Obs.Float neg_infinity) ]))

(* --- Sinks and recorders ---------------------------------------------------- *)

let test_disabled_recorder () =
  check "disabled is disabled" false (Obs.enabled Obs.disabled);
  (* emit on the disabled recorder must be a no-op, and span must still
     run its thunk and return its value *)
  Obs.emit Obs.disabled ~ev:"x" [ ("a", Obs.Int 1) ];
  check_i "span returns" 3 (Obs.span Obs.disabled ~name:"s" (fun () -> 3))

let test_memory_sink () =
  let sink, fetch = Obs.memory_sink () in
  let t = Obs.make sink in
  check "enabled" true (Obs.enabled t);
  Obs.emit t ~ev:"first" [];
  Obs.emit t ~ev:"second" [ ("n", Obs.Int 1) ];
  (match fetch () with
  | [ a; b ] ->
      check_s "order preserved" "first" a.Obs.ev;
      check_s "second event" "second" b.Obs.ev
  | l -> Alcotest.fail (Fmt.str "expected 2 events, got %d" (List.length l)));
  check "timestamps set" true (List.for_all (fun e -> e.Obs.ts > 0.0) (fetch ()))

let test_span_event () =
  let sink, fetch = Obs.memory_sink () in
  let t = Obs.make sink in
  let r = Obs.span t ~name:"work" ~fields:[ ("tag", Obs.Int 9) ] (fun () -> 21 * 2) in
  check_i "span returns thunk value" 42 r;
  match fetch () with
  | [ e ] ->
      check_s "span event kind" "span" e.Obs.ev;
      check "carries the name" true
        (List.assoc_opt "name" e.Obs.fields = Some (Obs.String "work"));
      check "carries extra fields" true (List.assoc_opt "tag" e.Obs.fields = Some (Obs.Int 9));
      (match List.assoc_opt "dt_s" e.Obs.fields with
      | Some (Obs.Float dt) -> check "non-negative duration" true (dt >= 0.0)
      | _ -> Alcotest.fail "missing dt_s")
  | l -> Alcotest.fail (Fmt.str "expected 1 event, got %d" (List.length l))

let test_channel_sink_jsonl () =
  let file = Filename.temp_file "obs_test" ".jsonl" in
  let oc = open_out file in
  let t = Obs.make (Obs.channel_sink oc) in
  Obs.emit t ~ev:"one" [ ("s", Obs.String "a\nb") ];
  Obs.emit t ~ev:"two" [ ("x", Obs.Float 0.5) ];
  close_out oc;
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove file;
  let lines = List.rev !lines in
  check_i "one line per event" 2 (List.length lines);
  List.iter (fun l -> check "line is valid JSON" true (is_valid_json l)) lines

(* Crash tolerance: the channel sink flushes after every event, so a
   campaign killed mid-run loses at most the line being written at that
   instant.  A consumer of the trace must therefore survive a torn final
   line: every complete line (all but possibly the last) still parses,
   and the torn tail is detectably invalid rather than silently merged
   into its predecessor. *)
let test_channel_sink_truncation_tolerance () =
  let file = Filename.temp_file "obs_trunc" ".jsonl" in
  let oc = open_out file in
  let t = Obs.make (Obs.channel_sink oc) in
  for i = 1 to 5 do
    Obs.emit t ~ev:"tick" [ ("i", Obs.Int i); ("tag", Obs.String "payload") ]
  done;
  close_out oc;
  (* simulate the crash: chop the file mid-way through the last line *)
  let ic = open_in_bin file in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let cut = String.length full - 12 in
  let oc = open_out_bin file in
  output_string oc (String.sub full 0 cut);
  close_out oc;
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove file;
  match List.rev !lines with
  | [] -> Alcotest.fail "expected surviving lines"
  | lines ->
      let n = List.length lines in
      List.iteri
        (fun i l ->
          if i < n - 1 then check (Fmt.str "line %d survives" i) true (is_valid_json l)
          else check "torn tail detected" false (is_valid_json l))
        lines;
      (* per-event flushing is what bounds the loss to one line *)
      check_i "all but the torn line survive" 5 n

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "validator sanity" `Quick test_validator_sanity;
          Alcotest.test_case "tricky strings encode validly" `Quick test_json_line_valid;
          Alcotest.test_case "non-finite floats" `Quick test_json_line_nonfinite;
          Alcotest.test_case "exact line shape" `Quick test_json_line_shape;
        ] );
      ( "recorders",
        [
          Alcotest.test_case "disabled no-ops" `Quick test_disabled_recorder;
          Alcotest.test_case "memory sink" `Quick test_memory_sink;
          Alcotest.test_case "span" `Quick test_span_event;
          Alcotest.test_case "channel sink writes JSONL" `Quick test_channel_sink_jsonl;
          Alcotest.test_case "crash-truncated trace stays readable" `Quick
            test_channel_sink_truncation_tolerance;
        ] );
    ]

(* The shared JSON module: printer/parser round trips over UTF-8 strings
   with quotes, backslashes and control characters, golden parses, the
   strict number grammar, valid-UTF-8 output for malformed input bytes,
   and the property that every JSON surface of the system (trace lines,
   EXPLAIN trees, lint and check reports, server responses) parses under
   the strict parser whatever string literal the query carries. *)

let parse_exn line =
  match Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad JSON %S: %s" line e

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Valid UTF-8 text biased toward what escaping must get right: quotes,
   backslashes, every control character, and 2-, 3- and 4-byte
   sequences. *)
let utf8_string =
  let open QCheck2.Gen in
  let uchar =
    frequency
      [
        (6, int_range 0x20 0x7e);
        (1, return (Char.code '"'));
        (1, return (Char.code '\\'));
        (1, return (Char.code '\''));
        (2, int_range 0x00 0x1f);
        (1, int_range 0x80 0x7ff);
        (1, int_range 0x800 0xd7ff);
        (1, int_range 0xe000 0xfffd);
        (1, int_range 0x10000 0x10ffff);
      ]
  in
  map
    (fun codes ->
      let b = Buffer.create 16 in
      List.iter (fun c -> Buffer.add_utf_8_uchar b (Uchar.of_int c)) codes;
      Buffer.contents b)
    (list_size (int_bound 12) uchar)

(* Floats are excluded (their printing is not digit-exact); they get
   golden tests below. *)
let json_gen =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun s -> Json.Str s) utf8_string;
             ]
         in
         if n = 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2)));
               map
                 (fun l -> Json.Obj l)
                 (list_size (int_bound 4) (pair utf8_string (self (n / 2))));
             ])

(* ------------------------------------------------------------------ *)
(* Printer and parser                                                  *)
(* ------------------------------------------------------------------ *)

let test_roundtrip =
  QCheck2.Test.make ~name:"to_string |> parse round-trips" ~count:500
    json_gen (fun j ->
      let text = Json.to_string j in
      if String.contains text '\n' then
        QCheck2.Test.fail_reportf "raw newline in %S" text;
      match Json.parse text with
      | Ok j' -> j = j'
      | Error e -> QCheck2.Test.fail_reportf "re-parse failed: %s" e)

let test_goldens () =
  let check name expect line =
    Alcotest.(check bool) name true (parse_exn line = expect)
  in
  check "escapes" (Json.Str "A\"\\\n\tB") {|"A\"\\\n\tB"|};
  check "surrogate pair" (Json.Str "\xf0\x9f\x90\xab") {|"🐫"|};
  check "nested"
    (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]) ])
    {| {"a": [1, 2.5, null]} |};
  check "negative + exponent"
    (Json.List [ Json.Int (-3); Json.Float 1e3; Json.Float (-0.5); Json.Int 0 ])
    {|[-3, 1.0e3, -5E-1, 0]|};
  let reject name line =
    match Json.parse line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted: %s" name line
  in
  reject "trailing garbage" {|{"a": 1} trailing|};
  reject "bad literal" {|{"a": tru}|};
  reject "lone low surrogate" {|"\udc2b"|};
  (* the JSON number grammar, not OCaml's *)
  List.iter
    (fun n ->
      reject ("number " ^ n) n;
      reject ("number in a list " ^ n) ("[" ^ n ^ "]"))
    [ "+5"; "01"; ".5"; "1."; "-"; "1e"; "1e+"; "0x10"; "1_000" ];
  (* float printing stays JSON-legal and close *)
  match parse_exn (Json.to_string (Json.Float 0.1)) with
  | Json.Float f ->
      Alcotest.(check bool) "0.1 close" true (Float.abs (f -. 0.1) < 1e-9)
  | _ -> Alcotest.fail "float did not round-trip as float"

(* A byte that starts no well-formed UTF-8 sequence (a Latin-1 0xE9, a
   stray continuation byte, a truncated sequence) prints as U+FFFD, so
   strict readers accept the output; well-formed sequences pass through
   byte for byte. *)
let test_utf8_output () =
  let printed s = Json.to_string (Json.Str s) in
  Alcotest.(check string) "latin-1 byte" "\"caf\\ufffd\"" (printed "caf\xe9");
  Alcotest.(check string) "stray continuation" "\"\\ufffdx\"" (printed "\x80x");
  Alcotest.(check string) "truncated sequence" "\"\\ufffd\\ufffd\""
    (printed "\xe2\x82");
  Alcotest.(check string) "overlong encoding" "\"\\ufffd\\ufffd\""
    (printed "\xc0\xaf");
  Alcotest.(check string) "utf-8 unchanged" "\"caf\xc3\xa9 \xf0\x9f\x90\xab\""
    (printed "caf\xc3\xa9 \xf0\x9f\x90\xab");
  Alcotest.(check bool) "re-parses to U+FFFD" true
    (parse_exn (printed "\xe9") = Json.Str "\xef\xbf\xbd");
  Alcotest.(check bool) "output is valid UTF-8" true
    (String.is_valid_utf_8 (printed "\xff\xfe a \xe9\xe9 \xf4\x90\x80\x80"))

(* ------------------------------------------------------------------ *)
(* Every JSON surface parses                                           *)
(* ------------------------------------------------------------------ *)

let kim_db () =
  let db = Core.create_db ~buffer_pages:8 ~page_bytes:128 () in
  Fixtures.define_fixture db "S" Workload.Fixtures.suppliers;
  Fixtures.define_fixture db "P" Workload.Fixtures.parts;
  Fixtures.define_fixture db "SP" Workload.Fixtures.shipments;
  db

let sql_literal s =
  "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

(* A transformable type-N query filtering on [lit]. *)
let query_with lit =
  "SELECT P.PNO FROM P WHERE P.CITY = " ^ sql_literal lit
  ^ " AND P.PNO IN (SELECT SP.PNO FROM SP WHERE SP.QTY > 1)"

let all_parse texts =
  List.iter
    (fun text ->
      if String.contains text '\n' then
        QCheck2.Test.fail_reportf "raw newline in %S" text;
      match Json.parse text with
      | Ok _ -> ()
      | Error e -> QCheck2.Test.fail_reportf "%s in %S" e text)
    texts

let test_surfaces_parse =
  QCheck2.Test.make ~name:"every JSON surface parses" ~count:25 utf8_string
    (fun lit ->
      let sql = query_with lit in
      let db = kim_db () in
      (* trace lines from a run and an EXPLAIN ANALYZE *)
      let lines = ref [] in
      let trace l = lines := l :: !lines in
      ignore
        (Result.get_ok
           (Core.run ~strategy:(Core.Transformed Optimizer.Planner.Auto) ~trace
              db sql));
      ignore (Result.get_ok (Core.explain_query ~analyze:true ~trace db sql));
      if !lines = [] then QCheck2.Test.fail_report "no trace lines";
      all_parse !lines;
      (* EXPLAIN trees *)
      let program = Result.get_ok (Core.transform db sql) in
      Optimizer.Planner.explain_segments ~analyze:true (Core.catalog db)
        (Optimizer.Planner.Program program)
      |> List.map (fun s -> Json.to_string s.Optimizer.Planner.seg_json)
      |> all_parse;
      (* lint reports: the query, and a syntax error quoting the literal *)
      all_parse
        (List.map
           (fun text ->
             Json.to_string
               (Analysis.Diagnostics.json_report (Core.lint_query db text)))
           [ sql; sql ^ " " ^ sql_literal lit ]);
      (* the check --json document *)
      all_parse
        [ Json.to_string (Core.check_json (Result.get_ok (Core.check_source db sql))) ];
      (* server responses; EXPLAIN text carries the literal back intact *)
      let server = Server.create db in
      let session = Server.open_session server in
      let request fields =
        fst (Server.handle_line server session (Json.to_string (Json.Obj fields)))
      in
      let responses =
        [
          request [ ("op", Json.Str "query"); ("sql", Json.Str sql) ];
          request
            [ ("op", Json.Str "explain"); ("sql", Json.Str sql);
              ("analyze", Json.Bool true) ];
          request
            [ ("op", Json.Str "lint"); ("sql", Json.Str sql);
              ("check", Json.Bool true) ];
          request [ ("op", Json.Str "stats") ];
        ]
      in
      all_parse responses;
      match Json.member "text" (parse_exn (List.nth responses 1)) with
      | Some (Json.Str text) ->
          Astring.String.is_infix ~affix:(sql_literal lit) text
      | _ -> QCheck2.Test.fail_report "explain response has no text")

(* Auto's decision as a trace line: exactly one per Auto statement, strict
   JSON, with the pick, the reason and the candidates ([null] when no
   index probe applies). *)
let test_auto_trace_line () =
  let eq_all =
    "SELECT PNUM FROM PARTS WHERE QOH = ALL (SELECT QUAN FROM SUPPLY WHERE \
     SUPPLY.PNUM = PARTS.PNUM AND QUAN > 4)"
  in
  let indexed () =
    let db = Fixtures.count_bug_db () in
    Core.create_index db "SUPPLY" ~column:"PNUM";
    db
  in
  List.iter
    (fun (db, sql, pick, priced) ->
      let lines = ref [] in
      ignore
        (Result.get_ok
           (Core.run ~trace:(fun l -> lines := l :: !lines) db sql));
      match
        List.filter
          (String.starts_with ~prefix:{|{"ev":"auto"|})
          !lines
      with
      | [ line ] ->
          let j = parse_exn line in
          Alcotest.(check (option string)) ("pick: " ^ sql) (Some pick)
            (match Json.member "pick" j with
            | Some (Json.Str s) -> Some s
            | _ -> None);
          Alcotest.(check bool) ("reason: " ^ sql) true
            (match Json.member "reason" j with
            | Some (Json.Str r) -> r <> ""
            | _ -> false);
          Alcotest.(check bool) ("candidates: " ^ sql) true
            (match Json.member "candidates" j with
            | Some Json.Null -> not priced
            | Some (Json.Obj _ as c) ->
                priced
                && (match Json.member "nested_iteration" c with
                   | Some (Json.Float _ | Json.Int _) -> true
                   | _ -> false)
            | _ -> false)
      | lines ->
          Alcotest.failf "%s: %d auto lines" sql (List.length lines))
    [
      (kim_db (), query_with "café", "transformed", false);
      (Fixtures.count_bug_db (), eq_all, "nested_iteration", false);
      (indexed (), eq_all, "nested_iteration", true);
    ]

let suites =
  [
    ( "json",
      [
        QCheck_alcotest.to_alcotest test_roundtrip;
        Alcotest.test_case "goldens and strict grammar" `Quick test_goldens;
        Alcotest.test_case "valid UTF-8 output" `Quick test_utf8_output;
        Alcotest.test_case "Auto's trace line" `Quick test_auto_trace_line;
        QCheck_alcotest.to_alcotest test_surfaces_parse;
      ] );
  ]

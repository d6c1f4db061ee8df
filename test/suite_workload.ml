(* Workload library: CSV loading, fixtures, random generators. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module G = Workload.Gen
module Csv = Workload.Csv_loader

let test_csv_basic () =
  let rel =
    Csv.of_lines ~rel:"T"
      [
        "PNUM:int, QOH:int, NAME:string, SINCE:date, W:float";
        "3, 6, bolt, 7-3-79, 1.5";
        "10, 1, nut, 1980-01-01, 2.0";
      ]
  in
  Alcotest.(check int) "rows" 2 (Relation.cardinality rel);
  Alcotest.(check int) "arity" 5 (Relalg.Schema.arity (Relation.schema rel));
  match Relation.rows rel with
  | [ first; _ ] ->
      Alcotest.(check bool) "int cell" true
        (Value.equal (Relalg.Row.get first 0) (Value.Int 3));
      Alcotest.(check bool) "string cell" true
        (Value.equal (Relalg.Row.get first 2) (Value.Str "bolt"));
      Alcotest.(check bool) "date cell" true
        (match Relalg.Row.get first 3 with
        | Value.Date { year = 1979; month = 7; day = 3 } -> true
        | _ -> false)
  | _ -> Alcotest.fail "rows"

let test_csv_nulls_and_blank_lines () =
  let rel =
    Csv.of_lines ~rel:"T" [ "A:int, B:string"; "1, x"; ""; ", "; "2, y" ]
  in
  Alcotest.(check int) "blank lines skipped" 3 (Relation.cardinality rel);
  let nulls =
    List.filter
      (fun r -> Value.is_null (Relalg.Row.get r 0))
      (Relation.rows rel)
  in
  Alcotest.(check int) "empty cells are NULL" 1 (List.length nulls)

let test_csv_errors () =
  let fails lines =
    try
      ignore (Csv.of_lines ~rel:"T" lines);
      false
    with Csv.Bad_csv _ -> true
  in
  Alcotest.(check bool) "empty input" true (fails []);
  Alcotest.(check bool) "bad type" true (fails [ "A:blob"; "1" ]);
  Alcotest.(check bool) "bad header" true (fails [ "AB"; "1" ]);
  Alcotest.(check bool) "arity mismatch" true (fails [ "A:int,B:int"; "1" ]);
  Alcotest.(check bool) "bad int" true (fails [ "A:int"; "x" ]);
  Alcotest.(check bool) "bad date" true (fails [ "A:date"; "2-30-79" ])

let test_csv_queryable () =
  (* A CSV-loaded table goes through the whole pipeline. *)
  let db = Core.create_db () in
  let rel =
    Csv.of_lines ~rel:"T" [ "K:int, V:int"; "1, 10"; "2, 20"; "1, 30" ]
  in
  Catalog.register_relation (Core.catalog db) "T" rel;
  let result =
    Result.get_ok
      (Core.query db "SELECT K FROM T WHERE V >= (SELECT MAX(V) FROM T X \
                      WHERE X.K = T.K)")
  in
  Alcotest.(check int) "rows" 2 (Relation.cardinality result)

let test_csv_writer_roundtrip () =
  let rel =
    Relation.of_values ~rel:"T"
      [ ("K", Value.Tint); ("S", Value.Tstr); ("D", Value.Tdate);
        ("F", Value.Tfloat) ]
      Value.
        [
          [ Int 1; Str "alpha"; Date { year = 1979; month = 7; day = 3 };
            Float 1.5 ];
          [ Null; Str "beta"; Null; Null ];
        ]
  in
  let back = Csv.of_lines ~rel:"T" (Workload.Csv_writer.to_lines rel) in
  Alcotest.(check bool) "write/read round trip" true (Relation.equal_bag rel back)

let test_csv_writer_rejects_commas () =
  let rel =
    Relation.of_values ~rel:"T" [ ("S", Value.Tstr) ] [ [ Value.Str "a,b" ] ]
  in
  Alcotest.(check bool) "comma rejected" true
    (try
       ignore (Workload.Csv_writer.to_lines rel);
       false
     with Workload.Csv_writer.Unwritable _ -> true)

(* The repro dialect holds every value but a string with a comma or a
   newline: NULL apart from '', blanks kept, floats exact, a one-column
   NULL row kept. *)
module RF = Workload.Repro_format

let gen_case =
  let open QCheck2.Gen in
  let gen_ty = oneofl Value.[ Tint; Tfloat; Tstr; Tdate ] in
  let gen_value ty =
    let some =
      match ty with
      | Value.Tint -> map (fun i -> Value.Int i) int
      | Value.Tfloat ->
          map
            (fun f -> Value.Float f)
            (oneof [ float; oneofl [ 1234567.0; 0.1; -0.0; 1e-300; nan ] ])
      | Value.Tstr ->
          map
            (fun s -> Value.Str s)
            (string_size ~gen:(oneofl [ ' '; '\t'; '"'; 'a'; 'b'; '-'; '\'' ])
               (int_range 0 4))
      | Value.Tdate ->
          map3
            (fun year month day -> Value.Date { Value.year; month; day })
            (int_range 1000 2999) (int_range 1 12) (int_range 1 28)
    in
    frequency [ (1, pure Value.Null); (4, some) ]
  in
  let gen_table i =
    let* tys = list_size (int_range 1 3) gen_ty in
    let columns = List.mapi (fun j ty -> (Printf.sprintf "C%d" j, ty)) tys in
    let name = Printf.sprintf "T%d" i in
    let+ rows =
      list_size (int_range 0 4) (flatten_l (List.map gen_value tys))
    in
    (name, Relation.of_values ~rel:name columns rows)
  in
  let* n = int_range 1 2 in
  let+ tables = flatten_l (List.init n gen_table) in
  { RF.tables; sql = "SELECT C0 FROM T0" }

let print_case c = try RF.to_string c with Workload.Csv_writer.Unwritable m -> m

let prop_repro_round_trip =
  QCheck2.Test.make ~name:"repro dialect: of_string (to_string c) = c"
    ~count:500 ~print:print_case gen_case (fun c ->
      compare (RF.of_string (RF.to_string c)) c = 0)

let test_repro_hard_values () =
  let one ty v =
    { RF.tables = [ ("T", Relation.of_values ~rel:"T" [ ("A", ty) ] [ [ v ] ]) ];
      sql = "SELECT A FROM T" }
  in
  List.iter
    (fun (what, ty, v) ->
      let c = one ty v in
      Alcotest.(check bool) what true (compare (RF.of_string (RF.to_string c)) c = 0))
    Value.
      [
        ("one-column NULL", Tstr, Null);
        ("empty string", Tstr, Str "");
        ("blanks kept", Tstr, Str " a ");
        ("quotes kept", Tstr, Str "\"x\"");
        ("float digits", Tfloat, Float 1234567.0);
        ("float 0.1", Tfloat, Float 0.1);
      ];
  Alcotest.(check bool) "a file refuses a one-column NULL row" true
    (match
       Workload.Csv_writer.save_file Filename.null
         (Relation.of_values ~rel:"T" [ ("A", Value.Tint) ] [ [ Value.Null ] ])
     with
    | () -> false
    | exception Workload.Csv_writer.Unwritable _ -> true)

let test_save_load_dir () =
  let dir = Filename.temp_file "nestopt" "" in
  Sys.remove dir;
  let c1 = Workload.Fixtures.parts_supply_catalog Workload.Fixtures.Count_bug in
  Workload.Csv_writer.save_dir c1 dir;
  let pager = Storage.Pager.create () in
  let c2 = Catalog.create pager in
  Workload.Csv_writer.load_dir c2 dir;
  Alcotest.(check bool) "parts round trip" true
    (Relation.equal_bag (Catalog.relation c1 "PARTS") (Catalog.relation c2 "PARTS"));
  Alcotest.(check bool) "supply round trip" true
    (Relation.equal_bag (Catalog.relation c1 "SUPPLY") (Catalog.relation c2 "SUPPLY"));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_fixtures_match_paper_instances () =
  Alcotest.(check int) "kiessling parts" 3
    (Relation.cardinality Workload.Fixtures.kiessling_parts);
  Alcotest.(check int) "kiessling supply" 5
    (Relation.cardinality Workload.Fixtures.kiessling_supply);
  Alcotest.(check int) "dup parts has 5 rows" 5
    (Relation.cardinality Workload.Fixtures.dup_parts);
  (* §5.3's SUPPLY has a part 9 that PARTS lacks. *)
  let pnums = Relation.column_values Workload.Fixtures.neq_supply "PNUM" in
  Alcotest.(check bool) "part 9 only in supply" true
    (List.exists (Value.equal (Value.Int 9)) pnums)

let test_gen_determinism () =
  let build seed =
    let rng = Random.State.make [| seed |] in
    let catalog = G.parts_supply_catalog rng ~n_parts:5 ~n_supply:10 ~key_range:4 in
    (Catalog.relation catalog "PARTS", Catalog.relation catalog "SUPPLY")
  in
  let p1, s1 = build 11 and p2, s2 = build 11 in
  Alcotest.(check bool) "same seed, same parts" true (Relation.equal_bag p1 p2);
  Alcotest.(check bool) "same seed, same supply" true (Relation.equal_bag s1 s2);
  let p3, _ = build 12 in
  Alcotest.(check bool) "different seed differs" false (Relation.equal_bag p1 p3)

let test_gen_queries_parse_and_classify () =
  let rng = Random.State.make [| 5 |] in
  let catalog = G.parts_supply_catalog rng ~n_parts:4 ~n_supply:8 ~key_range:4 in
  let check_kind make expected =
    for _ = 1 to 25 do
      let text = make rng in
      let q = Workload.Fixtures.parse_analyzed catalog text in
      match Optimizer.Classify.classify_query q with
      | Some c when c = expected -> ()
      | Some c ->
          Alcotest.failf "query %s classified %s, expected %s" text
            (Optimizer.Classify.name c)
            (Optimizer.Classify.name expected)
      | None -> Alcotest.failf "query %s classified flat" text
    done
  in
  check_kind G.n_query Optimizer.Classify.Type_n;
  check_kind G.a_query Optimizer.Classify.Type_a;
  check_kind G.j_query Optimizer.Classify.Type_j;
  check_kind G.ja_query Optimizer.Classify.Type_ja

let test_scaled_catalog_sizes () =
  let catalog =
    G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed:1 ~n_parts:10
      ~supply_per_part:4 ()
  in
  Alcotest.(check int) "parts" 10 (Catalog.tuples catalog "PARTS");
  Alcotest.(check int) "supply" 40 (Catalog.tuples catalog "SUPPLY")

let suites =
  [
    ( "workload.csv",
      [
        Alcotest.test_case "basic types" `Quick test_csv_basic;
        Alcotest.test_case "nulls and blanks" `Quick
          test_csv_nulls_and_blank_lines;
        Alcotest.test_case "errors" `Quick test_csv_errors;
        Alcotest.test_case "queryable end to end" `Quick test_csv_queryable;
        Alcotest.test_case "writer round trip" `Quick test_csv_writer_roundtrip;
        Alcotest.test_case "writer rejects commas" `Quick
          test_csv_writer_rejects_commas;
        Alcotest.test_case "save/load directory" `Quick test_save_load_dir;
        Alcotest.test_case "repro dialect: hard values" `Quick
          test_repro_hard_values;
        QCheck_alcotest.to_alcotest prop_repro_round_trip;
      ] );
    ( "workload.gen",
      [
        Alcotest.test_case "paper fixtures" `Quick
          test_fixtures_match_paper_instances;
        Alcotest.test_case "determinism" `Quick test_gen_determinism;
        Alcotest.test_case "generated queries classify" `Quick
          test_gen_queries_parse_and_classify;
        Alcotest.test_case "scaled catalog" `Quick test_scaled_catalog_sizes;
      ] );
  ]

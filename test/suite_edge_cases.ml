(* Edge cases and golden snapshots: parser/analyzer robustness, exact
   printed forms of transformed programs (the paper-style output is part of
   the interface), and the remaining cost-model entry points. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module F = Workload.Fixtures
open Optimizer

let parse_ok text =
  match Sql.Parser.parse text with
  | Ok q -> q
  | Error msg -> Alcotest.failf "parse error: %s" msg

(* --- parser robustness --------------------------------------------------- *)

let test_whitespace_and_case () =
  let a = parse_ok "select   sname\nFROM s\twhere STATUS > 20" in
  let b = parse_ok "SELECT sname FROM s WHERE STATUS > 20" in
  Alcotest.(check bool) "layout-insensitive" true (Sql.Ast.equal_query a b);
  (* identifiers keep their case *)
  match a.Sql.Ast.select with
  | [ Sql.Ast.Sel_col { column = "sname"; _ } ] -> ()
  | _ -> Alcotest.fail "identifier case preserved"

let test_deeply_nested_parse () =
  (* 12 levels of nesting parse and report the right depth. *)
  let rec build n =
    if n = 0 then "SELECT PNUM FROM SUPPLY"
    else
      Printf.sprintf "SELECT PNUM FROM SUPPLY WHERE PNUM IN (%s)" (build (n - 1))
  in
  let q = parse_ok (build 12) in
  Alcotest.(check int) "depth 12" 12 (Sql.Ast.nesting_depth q)

let test_parse_error_positions () =
  (match Sql.Parser.parse "SELECT A FROM T WHERE" with
  | Error msg ->
      Alcotest.(check bool) "mentions line" true
        (String.length msg > 0 &&
         (let rec has i = i + 4 <= String.length msg && (String.sub msg i 4 = "line" || has (i+1)) in has 0))
  | Ok _ -> Alcotest.fail "expected error");
  match Sql.Parser.parse "SELECT A\nFROM T\nWHERE A ==" with
  | Error msg ->
      let has needle =
        let n = String.length needle in
        let rec go i = i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "line 3 reported" true (has "line 3")
  | Ok _ -> Alcotest.fail "expected error"

let test_semicolon_and_comments () =
  let a = parse_ok "SELECT SNO FROM SP; -- trailing comment" in
  let b = parse_ok "-- leading\nSELECT SNO FROM SP" in
  Alcotest.(check bool) "semicolon+comments" true (Sql.Ast.equal_query a b)

let test_string_escapes_roundtrip () =
  let q = parse_ok "SELECT SNO FROM SP WHERE ORIGIN = 'O''Brien'" in
  let printed = Sql.Pp.query_to_string q in
  let q' = parse_ok printed in
  Alcotest.(check bool) "escaped quote round trip" true
    (Sql.Ast.equal_query q q')

let test_is_not_in () =
  let a = parse_ok "SELECT SNO FROM S WHERE SNO IS NOT IN (SELECT SNO FROM SP)" in
  let b = parse_ok "SELECT SNO FROM S WHERE SNO NOT IN (SELECT SNO FROM SP)" in
  Alcotest.(check bool) "IS NOT IN accepted" true (Sql.Ast.equal_query a b)

(* --- analyzer edges ------------------------------------------------------ *)

let kim = F.kim_catalog ()
let lookup = Catalog.lookup kim

let test_unqualified_outer_reference () =
  (* An unqualified column that only resolves in the outer scope. *)
  let q =
    match
      Sql.Analyzer.analyze ~lookup
        (parse_ok
           "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE \
            ORIGIN = CITY)")
    with
    | Ok q -> q
    | Error e -> Alcotest.failf "analyze: %s" e
  in
  match q.Sql.Ast.where with
  | [ Sql.Ast.In_subq (_, sub) ] ->
      Alcotest.(check bool) "CITY bound to outer S" true
        (Sql.Ast.String_set.mem "S" (Sql.Ast.free_tables sub))
  | _ -> Alcotest.fail "shape"

let test_self_join_aliases_analyze () =
  match
    Sql.Analyzer.analyze ~lookup
      (parse_ok "SELECT X.SNO FROM SP X, SP Y WHERE X.PNO = Y.PNO AND X.QTY \
                 > Y.QTY")
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "self join: %s" e

let test_numeric_cross_type_compare () =
  (* INT vs FLOAT comparisons are allowed. *)
  match
    Sql.Analyzer.analyze ~lookup
      (parse_ok "SELECT SNO FROM SP WHERE QTY > 99.5")
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "numeric mix: %s" e

(* --- golden snapshots ----------------------------------------------------- *)

let normalize s = String.concat "\n" (String.split_on_char '\n' (String.trim s))

let test_golden_q2_program () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q = F.parse_analyzed catalog F.query_q2 in
  let n = ref 0 in
  let fresh () = incr n; Printf.sprintf "TEMP%d" !n in
  let program = Nest_g.transform ~fresh q in
  let expected =
    "TEMP1 (PNUM) :=\n\
    \  SELECT DISTINCT PARTS.PNUM FROM PARTS;\n\n\
     TEMP2 (PNUM, SHIPDATE) :=\n\
    \  SELECT SUPPLY.PNUM, SUPPLY.SHIPDATE\n\
    \  FROM SUPPLY\n\
    \  WHERE SUPPLY.SHIPDATE < '1980-01-01';\n\n\
     TEMP3 (PNUM, COUNT_SHIPDATE) :=\n\
    \  SELECT TEMP1.PNUM, COUNT(TEMP2.SHIPDATE)\n\
    \  FROM TEMP1, TEMP2\n\
    \  WHERE TEMP1.PNUM =+ TEMP2.PNUM\n\
    \  GROUP BY TEMP1.PNUM;\n\n\
     SELECT PARTS.PNUM\n\
     FROM PARTS, TEMP3\n\
     WHERE PARTS.QOH = TEMP3.COUNT_SHIPDATE\n\
     AND PARTS.PNUM <=> TEMP3.PNUM;"
  in
  Alcotest.(check string) "paper-style program"
    (normalize expected)
    (normalize (Program.to_string program))

let test_golden_relation_pp () =
  let rel =
    Relation.of_values ~rel:"T"
      [ ("A", Value.Tint); ("B", Value.Tstr) ]
      Value.[ [ Int 1; Str "x" ]; [ Null; Str "long-ish" ] ]
  in
  let expected =
    "T.A   T.B       \n\
     ----  ----------\n\
     1     'x'       \n\
     NULL  'long-ish'\n\
     (2 rows)"
  in
  Alcotest.(check string) "table rendering" expected (Fmt.str "%a" Relation.pp rel)

let test_golden_explain_shape () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q = F.parse_analyzed catalog F.query_q2 in
  let program =
    Nest_g.transform ~fresh:(fun () -> Catalog.fresh_temp_name catalog) q
  in
  let text =
    String.concat "\n"
      (List.map
         (fun (s : Planner.explained) -> s.seg_text)
         (Planner.explain_segments catalog (Planner.Program program)))
  in
  let has needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "distinct for TEMP1" true (has "Distinct");
  Alcotest.(check bool) "left-outer join for COUNT" true (has "left-outer");
  Alcotest.(check bool) "group agg" true (has "GroupAgg");
  Alcotest.(check bool) "filter pushed below" true (has "Filter")

(* --- NULL / padding edge-case goldens ------------------------------------- *)

let date y m dd = Value.Date { year = y; month = m; day = dd }

(* A Kiessling-style catalog with NULL join columns on both sides. *)
let null_bearing_catalog () =
  Workload.Gen.catalog_of ~buffer_pages:8 ~page_bytes:128
    [
      ( "PARTS",
        Relation.of_values ~rel:"PARTS"
          [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
          Value.[ [ Int 3; Int 1 ]; [ Null; Int 0 ]; [ Int 10; Int 1 ] ] );
      ( "SUPPLY",
        Relation.of_values ~rel:"SUPPLY"
          [ ("PNUM", Value.Tint); ("QUAN", Value.Tint);
            ("SHIPDATE", Value.Tdate) ]
          Value.
            [
              [ Int 3; Int 4; date 1979 6 1 ];
              [ Null; Int 9; date 1979 1 1 ];
            ] );
    ]

let run_both catalog text =
  let q = F.parse_analyzed catalog text in
  let nested = Exec.Nested_iter.run catalog q in
  let program =
    Nest_g.transform ~fresh:(fun () -> Catalog.fresh_temp_name catalog) q
  in
  let transformed = Fixtures.run_verified catalog program in
  Planner.drop_temps catalog program;
  (nested, transformed, program)

(* The Kiessling count bug, NULL variant: the part with a NULL join column
   matches no supply, so COUNT = 0 = QOH and the row qualifies.  The
   transformed program only keeps it because the final join-back uses the
   null-safe <=> (a strict = would drop the NULL group row). *)
let test_count_bug_with_nulls () =
  let catalog = null_bearing_catalog () in
  let nested, transformed, program =
    run_both catalog
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM \
       SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)"
  in
  let expected = Value.[ Null; Int 3 ] in
  Alcotest.(check bool) "nested keeps the NULL part" true
    (List.sort Value.compare (Relation.column_values nested "PNUM") = expected);
  Alcotest.(check bool) "transformed agrees exactly" true
    (Relation.equal_bag nested transformed);
  let text = Program.to_string program in
  let has needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length text && (String.sub text i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "join-back is null-safe" true (has "<=>")

(* SUM / AVG over a padding-only group stay NULL (only COUNT becomes 0),
   so QOH = NULL is Unknown and the supply-less part is rejected. *)
let test_sum_avg_padded_group () =
  let catalog =
    Workload.Gen.catalog_of ~buffer_pages:8 ~page_bytes:128
      [
        ( "PARTS",
          Relation.of_values ~rel:"PARTS"
            [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
            Value.[ [ Int 1; Int 3 ]; [ Int 2; Int 0 ] ] );
        ( "SUPPLY",
          Relation.of_values ~rel:"SUPPLY"
            [ ("PNUM", Value.Tint); ("QUAN", Value.Tint);
              ("SHIPDATE", Value.Tdate) ]
            Value.
              [
                [ Int 1; Int 1; date 1979 6 1 ];
                [ Int 1; Int 2; date 1981 3 1 ];
              ] );
      ]
  in
  let nested, transformed, _ =
    run_both catalog
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT SUM(QUAN) FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)"
  in
  Alcotest.(check bool) "SUM: only part 1 (3 = 1+2) qualifies" true
    (Relation.column_values nested "PNUM" = Value.[ Int 1 ]);
  Alcotest.(check bool) "SUM: transformed agrees (part 2 not resurrected)"
    true
    (Relation.equal_bag nested transformed);
  let nested, transformed, _ =
    run_both catalog
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT AVG(QUAN) FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)"
  in
  (* part 1: AVG = 1.5 <> 3; part 2: AVG over padding = NULL -> Unknown *)
  Alcotest.(check int) "AVG: empty either way" 0 (Relation.cardinality nested);
  Alcotest.(check bool) "AVG: transformed agrees" true
    (Relation.equal_bag nested transformed)

(* §5.3 duplicates with NULL duplicates: IN keeps each qualifying outer
   occurrence; NULL correlation values never match.  The join-based merge
   may change multiplicity (the documented §5.4 residue) but must agree as
   a set and must not resurrect the NULL-key rows. *)
let test_duplicates_with_null_dups () =
  let catalog =
    Workload.Gen.catalog_of ~buffer_pages:8 ~page_bytes:128
      [
        ( "PARTS",
          Relation.of_values ~rel:"PARTS"
            [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
            Value.
              [
                [ Int 1; Int 5 ]; [ Int 1; Int 5 ]; [ Null; Int 5 ];
                [ Null; Int 5 ]; [ Int 2; Int 7 ];
              ] );
        ( "SUPPLY",
          Relation.of_values ~rel:"SUPPLY"
            [ ("PNUM", Value.Tint); ("QUAN", Value.Tint);
              ("SHIPDATE", Value.Tdate) ]
            Value.
              [
                [ Int 1; Int 5; date 1979 6 1 ];
                [ Int 1; Int 5; date 1980 2 1 ];
                [ Null; Int 5; date 1979 1 1 ];
              ] );
      ]
  in
  let nested, transformed, _ =
    run_both catalog
      "SELECT QOH FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
       SUPPLY.PNUM = PARTS.PNUM)"
  in
  Alcotest.(check bool) "nested: one 5 per qualifying occurrence" true
    (Relation.column_values nested "QOH" = Value.[ Int 5; Int 5 ]);
  Alcotest.(check bool) "transformed agrees as a set" true
    (Relation.equal_set nested transformed);
  Alcotest.(check bool) "NULL-key rows stay out" true
    (List.for_all
       (fun v -> Value.compare v (Value.Int 5) = 0)
       (Relation.column_values transformed "QOH"))

(* --- ORDER BY ------------------------------------------------------------- *)

let test_order_by_basic () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let run text =
    Exec.Nested_iter.run catalog (F.parse_analyzed catalog text)
  in
  let rel = run "SELECT PNUM FROM SUPPLY ORDER BY PNUM" in
  let got = Relation.column_values rel "PNUM" in
  Alcotest.(check bool) "ascending" true
    (got = Value.[ Int 3; Int 3; Int 8; Int 10; Int 10 ]);
  let rel = run "SELECT PNUM, QUAN FROM SUPPLY ORDER BY PNUM DESC, QUAN" in
  Alcotest.(check bool) "desc primary, asc secondary" true
    (Relation.column_values rel "PNUM"
     = Value.[ Int 10; Int 10; Int 8; Int 3; Int 3 ])

let test_order_by_transformed_path () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let text = F.query_q2 ^ " ORDER BY PNUM DESC" in
  let q = F.parse_analyzed catalog text in
  let program =
    Nest_g.transform ~fresh:(fun () -> Catalog.fresh_temp_name catalog) q
  in
  let result = Fixtures.run_verified catalog program in
  Alcotest.(check bool) "ordered transformed result" true
    (Relation.column_values result "PNUM" = Value.[ Int 10; Int 8 ])

let test_order_by_validation () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let analyze text =
    match Sql.Parser.parse text with
    | Error e -> Error e
    | Ok q -> Sql.Analyzer.analyze ~lookup:(Catalog.lookup catalog) q
  in
  Alcotest.(check bool) "unknown output column rejected" true
    (Result.is_error (analyze "SELECT PNUM FROM PARTS ORDER BY QOH"));
  Alcotest.(check bool) "qualified name rejected" true
    (Result.is_error (analyze "SELECT PNUM FROM PARTS ORDER BY PARTS.PNUM"));
  Alcotest.(check bool) "order by in subquery rejected" true
    (Result.is_error
       (analyze
          "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY            ORDER BY PNUM)"));
  Alcotest.(check bool) "valid order by accepted" true
    (Result.is_ok (analyze "SELECT PNUM FROM PARTS ORDER BY PNUM DESC"))

let test_order_by_roundtrip () =
  let a = parse_ok "SELECT PNUM, QUAN FROM SUPPLY ORDER BY QUAN DESC, PNUM" in
  let b = parse_ok (Sql.Pp.query_to_string a) in
  Alcotest.(check bool) "pp round trip" true (Sql.Ast.equal_query a b)

(* --- remaining cost-model entry points ----------------------------------- *)

let test_cost_type_a_and_type_n () =
  Alcotest.(check int) "type-A cost" 130
    (int_of_float (Cost.type_a ~pi:50. ~pj:80.));
  (* Type-N with a spilled X list: Pi + Pj + f.Ni * Px. *)
  Alcotest.(check int) "type-N with X list" (20 + 100 + (50 * 4))
    (int_of_float
       (Cost.nested_iteration_type_n ~pi:20. ~pj:100. ~fi_ni:50. ~px:4.));
  (* §7 components stay consistent: the all-merge strategy total equals the
     closed form for an arbitrary parameter set. *)
  let p =
    { Cost.pi = 80.; pj = 45.; pt2 = 9.; pt3 = 12.; pt4 = 11.; pt = 6.;
      b = 10; fi_ni = 200.; nt2 = 120. }
  in
  let all_merge =
    List.find
      (fun s -> s.Cost.temp_method = "merge" && s.Cost.final_method = "merge")
      (Cost.ja2_strategies p)
  in
  Alcotest.(check bool) "strategy = closed form" true
    (Float.abs (all_merge.Cost.cost -. Cost.ja2_total_merge p) < 1e-6)

let test_cost_nl_fits_vs_thrash () =
  let fits = { Cost.pi = 10.; pj = 10.; pt2 = 2.; pt3 = 3.; pt4 = 3.; pt = 2.;
               b = 6; fi_ni = 10.; nt2 = 20. } in
  Alcotest.(check bool) "small Rt3 uses the cheap NL formula" true
    (Cost.ja2_temp_nl_fits fits < Cost.ja2_temp_nl_thrash fits)

let suites =
  [
    ( "sql.edge_cases",
      [
        Alcotest.test_case "whitespace/case" `Quick test_whitespace_and_case;
        Alcotest.test_case "deep nesting" `Quick test_deeply_nested_parse;
        Alcotest.test_case "error positions" `Quick test_parse_error_positions;
        Alcotest.test_case "semicolons/comments" `Quick
          test_semicolon_and_comments;
        Alcotest.test_case "string escapes" `Quick test_string_escapes_roundtrip;
        Alcotest.test_case "IS NOT IN" `Quick test_is_not_in;
        Alcotest.test_case "unqualified outer ref" `Quick
          test_unqualified_outer_reference;
        Alcotest.test_case "self join aliases" `Quick
          test_self_join_aliases_analyze;
        Alcotest.test_case "numeric cross-type" `Quick
          test_numeric_cross_type_compare;
      ] );
    ( "golden",
      [
        Alcotest.test_case "Q2 transformed program" `Quick
          test_golden_q2_program;
        Alcotest.test_case "relation rendering" `Quick test_golden_relation_pp;
        Alcotest.test_case "explain shape" `Quick test_golden_explain_shape;
        Alcotest.test_case "count bug with NULLs" `Quick
          test_count_bug_with_nulls;
        Alcotest.test_case "SUM/AVG over padding-only group" `Quick
          test_sum_avg_padded_group;
        Alcotest.test_case "duplicates with NULL duplicates" `Quick
          test_duplicates_with_null_dups;
      ] );
    ( "sql.order_by",
      [
        Alcotest.test_case "basic" `Quick test_order_by_basic;
        Alcotest.test_case "transformed path" `Quick
          test_order_by_transformed_path;
        Alcotest.test_case "validation" `Quick test_order_by_validation;
        Alcotest.test_case "round trip" `Quick test_order_by_roundtrip;
      ] );
    ( "optimizer.cost_extra",
      [
        Alcotest.test_case "type-A / type-N formulas" `Quick
          test_cost_type_a_and_type_n;
        Alcotest.test_case "NL fits vs thrash" `Quick test_cost_nl_fits_vs_thrash;
      ] );
  ]

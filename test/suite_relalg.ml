(* Unit and property tests for the relational data-model substrate. *)

open Relalg

let truth = Alcotest.testable Truth.pp Truth.equal
let value = Alcotest.testable Value.pp Value.equal

let check_truth = Alcotest.(check truth)
let check_value = Alcotest.(check value)

(* --- Truth ------------------------------------------------------------ *)

let test_truth_tables () =
  let open Truth in
  check_truth "T and U" Unknown (and_ True Unknown);
  check_truth "F and U" False (and_ False Unknown);
  check_truth "U and U" Unknown (and_ Unknown Unknown);
  check_truth "T or U" True (or_ True Unknown);
  check_truth "F or U" Unknown (or_ False Unknown);
  check_truth "not U" Unknown (not_ Unknown);
  check_truth "empty conjunction" True (conjunction []);
  check_truth "empty disjunction" False (disjunction []);
  Alcotest.(check bool) "to_bool Unknown" false (to_bool Unknown);
  Alcotest.(check bool) "to_bool True" true (to_bool True)

let truth_gen =
  QCheck2.Gen.oneofl Truth.[ True; False; Unknown ]

let prop_de_morgan =
  QCheck2.Test.make ~name:"truth: De Morgan under 3VL" ~count:200
    QCheck2.Gen.(pair truth_gen truth_gen)
    (fun (a, b) ->
      Truth.(equal (not_ (and_ a b)) (or_ (not_ a) (not_ b)))
      && Truth.(equal (not_ (or_ a b)) (and_ (not_ a) (not_ b))))

let prop_conjunction_comm =
  QCheck2.Test.make ~name:"truth: and/or commutative+assoc" ~count:200
    QCheck2.Gen.(triple truth_gen truth_gen truth_gen)
    (fun (a, b, c) ->
      Truth.(equal (and_ a b) (and_ b a))
      && Truth.(equal (or_ a b) (or_ b a))
      && Truth.(equal (and_ a (and_ b c)) (and_ (and_ a b) c))
      && Truth.(equal (or_ a (or_ b c)) (or_ (or_ a b) c)))

(* --- Value ------------------------------------------------------------ *)

let test_value_compare () =
  let open Value in
  Alcotest.(check int) "null = null" 0 (compare Null Null);
  Alcotest.(check bool) "null < int" true (compare Null (Int 0) < 0);
  Alcotest.(check bool) "int/float numeric" true (compare (Int 1) (Float 1.5) < 0);
  Alcotest.(check bool) "int = float" true (equal (Int 2) (Float 2.0));
  Alcotest.(check bool) "str order" true (compare (Str "a") (Str "b") < 0)

(* SQL's three-valued comparison over [Value.compare] is the executor's
   [Eval.cmp_values]. *)
let test_value_sql_cmp () =
  let open Value in
  let cmp = Exec.Eval.cmp_values in
  check_truth "1 = 1" Truth.True (cmp Sql.Ast.Eq (Int 1) (Int 1));
  check_truth "1 = 2" Truth.False (cmp Sql.Ast.Eq (Int 1) (Int 2));
  check_truth "null = 1" Truth.Unknown (cmp Sql.Ast.Eq Null (Int 1));
  check_truth "null = null is unknown" Truth.Unknown (cmp Sql.Ast.Eq Null Null);
  check_truth "null < 1" Truth.Unknown (cmp Sql.Ast.Lt Null (Int 1));
  check_truth "1 < 2" Truth.True (cmp Sql.Ast.Lt (Int 1) (Int 2))

let test_dates () =
  let open Value in
  let d fmt = Option.get (date_of_string fmt) in
  Alcotest.(check bool) "paper format 7-3-79" true
    (d "7-3-79" = { year = 1979; month = 7; day = 3 });
  Alcotest.(check bool) "slash format" true
    (d "8/14/77" = { year = 1977; month = 8; day = 14 });
  Alcotest.(check bool) "iso format" true
    (d "1980-01-01" = { year = 1980; month = 1; day = 1 });
  Alcotest.(check bool) "ordering" true
    (compare (Date (d "7-3-79")) (Date (d "1-1-80")) < 0);
  Alcotest.(check bool) "invalid date rejected" true
    (date_of_string "2-30-79" = None);
  Alcotest.(check bool) "leap year ok" true (date_of_string "2-29-80" <> None);
  Alcotest.(check bool) "non-leap rejected" true
    (date_of_string "2-29-79" = None);
  Alcotest.(check bool) "garbage rejected" true (date_of_string "hello" = None)

let test_value_add () =
  let open Value in
  check_value "int add" (Int 3) (add (Int 1) (Int 2));
  check_value "mixed add" (Float 3.5) (add (Int 1) (Float 2.5));
  check_value "null absorbs" Null (add Null (Int 1));
  Alcotest.check_raises "string add raises"
    (Invalid_argument "Value.add: non-numeric operand") (fun () ->
      ignore (add (Str "x") (Int 1)))

let test_coerce_literal () =
  let open Value in
  (match coerce_string_literal "1-1-80" Tdate with
  | Some (Date { year = 1980; month = 1; day = 1 }) -> ()
  | _ -> Alcotest.fail "date literal coercion");
  check_value "int literal" (Int 42) (Option.get (coerce_string_literal "42" Tint));
  Alcotest.(check bool) "bad int" true (coerce_string_literal "x" Tint = None)

let value_gen =
  QCheck2.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map (fun f -> Value.Float f) (float_bound_inclusive 100.);
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 8));
      ])

let prop_compare_total_order =
  QCheck2.Test.make ~name:"value: compare is a total order" ~count:500
    QCheck2.Gen.(triple value_gen value_gen value_gen)
    (fun (a, b, c) ->
      let sgn x = Stdlib.compare x 0 in
      sgn (Value.compare a b) = -sgn (Value.compare b a)
      && (not (Value.compare a b <= 0 && Value.compare b c <= 0)
          || Value.compare a c <= 0))

let prop_sql_eq_consistent =
  QCheck2.Test.make ~name:"value: SQL = true iff compare=0 on non-nulls"
    ~count:500
    QCheck2.Gen.(pair value_gen value_gen)
    (fun (a, b) ->
      match Exec.Eval.cmp_values Sql.Ast.Eq a b with
      | Truth.Unknown -> Value.is_null a || Value.is_null b
      | Truth.True -> Value.compare a b = 0
      | Truth.False -> Value.compare a b <> 0)

(* --- Schema / Row ------------------------------------------------------ *)

let abc_schema =
  Schema.of_columns ~rel:"R" [ ("a", Value.Tint); ("b", Value.Tstr); ("c", Value.Tint) ]

let test_schema_find () =
  Alcotest.(check int) "find b" 1 (Schema.find abc_schema "b");
  Alcotest.(check int) "find qualified" 2 (Schema.find abc_schema ~rel:"R" "c");
  Alcotest.(check bool) "missing" true (Schema.find_opt abc_schema "z" = None);
  Alcotest.check_raises "not found raises" (Schema.Not_found_column "S.a")
    (fun () -> ignore (Schema.find abc_schema ~rel:"S" "a"))

let test_schema_ambiguous () =
  let s =
    Schema.append abc_schema (Schema.of_columns ~rel:"S" [ ("a", Value.Tint) ])
  in
  Alcotest.check_raises "unqualified a ambiguous" (Schema.Ambiguous "a")
    (fun () -> ignore (Schema.find s "a"));
  Alcotest.(check int) "qualified resolves" 3 (Schema.find s ~rel:"S" "a")

let test_schema_ops () =
  let renamed = Schema.rename_rel abc_schema "T" in
  Alcotest.(check int) "rename keeps positions" 1 (Schema.find renamed ~rel:"T" "b");
  let proj = Schema.project abc_schema [ 2; 0 ] in
  Alcotest.(check int) "project reorders" 0 (Schema.find proj "c");
  Alcotest.(check int) "arity" 2 (Schema.arity proj);
  Alcotest.(check bool) "compatible ignores rel" true
    (Schema.compatible abc_schema renamed);
  Alcotest.(check bool) "equal minds rel" false (Schema.equal abc_schema renamed)

let test_row_ops () =
  let r = Row.of_list Value.[ Int 1; Str "x"; Int 3 ] in
  Alcotest.(check int) "arity" 3 (Row.arity r);
  check_value "get" (Value.Str "x") (Row.get r 1);
  let p = Row.project r [ 2; 0 ] in
  check_value "project" (Value.Int 3) (Row.get p 0);
  let n = Row.nulls 2 in
  Alcotest.(check bool) "nulls" true (Value.is_null (Row.get n 0));
  Alcotest.(check bool) "append" true
    (Row.arity (Row.append r n) = 5);
  Alcotest.(check bool) "compare_on single key" true
    (Row.compare_on [ 0 ]
       (Row.of_list Value.[ Int 1; Int 9 ])
       (Row.of_list Value.[ Int 2; Int 0 ])
    < 0)

(* --- Relation ----------------------------------------------------------- *)

let mk_rel rows = Relation.of_values ~rel:"R" [ ("a", Value.Tint) ] rows

let test_relation_bag_set () =
  let r1 = mk_rel Value.[ [ Int 1 ]; [ Int 2 ]; [ Int 1 ] ] in
  let r2 = mk_rel Value.[ [ Int 2 ]; [ Int 1 ]; [ Int 1 ] ] in
  let r3 = mk_rel Value.[ [ Int 1 ]; [ Int 2 ] ] in
  Alcotest.(check bool) "bag equal (reordered)" true (Relation.equal_bag r1 r2);
  Alcotest.(check bool) "bag differs on multiplicity" false
    (Relation.equal_bag r1 r3);
  Alcotest.(check bool) "set equal ignores multiplicity" true
    (Relation.equal_set r1 r3);
  Alcotest.(check int) "distinct" 2 (Relation.cardinality (Relation.distinct r1))

let test_relation_columns () =
  let r =
    Relation.of_values ~rel:"R"
      [ ("a", Value.Tint); ("b", Value.Tstr) ]
      Value.[ [ Int 1; Str "x" ]; [ Int 2; Str "y" ] ]
  in
  Alcotest.(check (list value)) "column_values"
    Value.[ Int 1; Int 2 ]
    (Relation.column_values r "a");
  Alcotest.check_raises "single_column arity"
    (Invalid_argument "Relation.single_column: arity <> 1") (fun () ->
      ignore (Relation.single_column r))

let test_relation_arity_check () =
  Alcotest.(check bool) "bad arity rejected" true
    (try
       ignore
         (Relation.make
            (Schema.of_columns ~rel:"R" [ ("a", Value.Tint) ])
            [ Row.of_list Value.[ Int 1; Int 2 ] ]);
       false
     with Invalid_argument _ -> true)

let rel_gen =
  QCheck2.Gen.(
    map
      (fun xs -> mk_rel (List.map (fun i -> [ Value.Int i ]) xs))
      (list_size (int_range 0 20) (int_range 0 5)))

let prop_distinct_idempotent =
  QCheck2.Test.make ~name:"relation: distinct idempotent & subset" ~count:200
    rel_gen (fun r ->
      let d = Relation.distinct r in
      Relation.equal_bag d (Relation.distinct d)
      && Relation.equal_set d r
      && Relation.cardinality d <= Relation.cardinality r)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "relalg.truth",
      [
        Alcotest.test_case "truth tables" `Quick test_truth_tables;
      ]
      @ qcheck [ prop_de_morgan; prop_conjunction_comm ] );
    ( "relalg.value",
      [
        Alcotest.test_case "total order basics" `Quick test_value_compare;
        Alcotest.test_case "sql comparisons" `Quick test_value_sql_cmp;
        Alcotest.test_case "dates" `Quick test_dates;
        Alcotest.test_case "arithmetic" `Quick test_value_add;
        Alcotest.test_case "literal coercion" `Quick test_coerce_literal;
      ]
      @ qcheck [ prop_compare_total_order; prop_sql_eq_consistent ] );
    ( "relalg.schema",
      [
        Alcotest.test_case "find" `Quick test_schema_find;
        Alcotest.test_case "ambiguity" `Quick test_schema_ambiguous;
        Alcotest.test_case "rename/project" `Quick test_schema_ops;
        Alcotest.test_case "row ops" `Quick test_row_ops;
      ] );
    ( "relalg.relation",
      [
        Alcotest.test_case "bag/set equality" `Quick test_relation_bag_set;
        Alcotest.test_case "column access" `Quick test_relation_columns;
        Alcotest.test_case "arity check" `Quick test_relation_arity_check;
      ]
      @ qcheck [ prop_distinct_idempotent ] );
  ]

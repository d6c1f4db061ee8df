(* The differential oracle: repro-format round trips, the NULL-aware
   comparator, the delta-debugging shrinker, a detector check (the matrix
   must notice wrong answers, not just run), a seeded fuzz smoke, and a
   replay of every committed regression repro. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Repro = Oracle.Repro
module Matrix = Oracle.Matrix
module Shrink = Oracle.Shrink
module Driver = Oracle.Driver

let parts rows =
  ( "PARTS",
    Relation.of_values ~rel:"PARTS"
      [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
      rows )

let supply rows =
  ( "SUPPLY",
    Relation.of_values ~rel:"SUPPLY"
      [ ("PNUM", Value.Tint); ("QUAN", Value.Tint); ("SHIPDATE", Value.Tdate) ]
      rows )

let d y m dd = Value.Date { year = y; month = m; day = dd }

let sample_case =
  {
    Repro.tables =
      [
        parts Value.[ [ Int 1; Int 2 ]; [ Null; Int 0 ] ];
        supply
          Value.
            [ [ Int 1; Int 5; d 1979 6 1 ]; [ Null; Int 7; d 1979 1 1 ] ];
      ];
    sql =
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM \
       SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
  }

(* --- repro format --------------------------------------------------------- *)

let test_repro_roundtrip () =
  let text = Repro.to_string ~description:"round trip" sample_case in
  let case = Repro.of_string text in
  Alcotest.(check int) "two tables" 2 (List.length case.Repro.tables);
  List.iter2
    (fun (n0, r0) (n1, r1) ->
      Alcotest.(check string) "table name" n0 n1;
      Alcotest.(check bool) "rows preserved (incl. NULL cells)" true
        (Relation.equal_bag r0 r1))
    sample_case.Repro.tables case.Repro.tables;
  Alcotest.(check string) "sql preserved" sample_case.Repro.sql case.Repro.sql

let test_repro_prose_comments () =
  (* Free-text comment lines — even ones starting with "-- row" — must not
     be mistaken for data. *)
  let text =
    "-- oracle repro: prose robustness\n\
     -- row is rejected when it appears outside a table block\n\
     -- table PARTS (PNUM:int,QOH:int)\n\
     -- row 1,2\n\
     -- a trailing remark\n\
     -- row 9,9\n\
     SELECT PNUM FROM PARTS\n"
  in
  let case = Repro.of_string text in
  let _, rel = List.hd case.Repro.tables in
  Alcotest.(check int) "only the real row" 1 (Relation.cardinality rel);
  Alcotest.(check string) "sql" "SELECT PNUM FROM PARTS" case.Repro.sql

let test_repro_bad_input () =
  Alcotest.check_raises "missing SQL"
    (Repro.Bad_repro "no SQL statement in repro") (fun () ->
      ignore (Repro.of_string "-- table T (A:int)\n-- row 1\n"))

(* --- comparator ----------------------------------------------------------- *)

let rel cols rows = Relation.of_values ~rel:"T" cols rows

let test_comparator () =
  let q_plain =
    Workload.Fixtures.parse_analyzed
      (Repro.build_db sample_case |> Core.catalog)
      "SELECT PNUM FROM PARTS"
  in
  let a = rel [ ("PNUM", Value.Tint) ] Value.[ [ Int 1 ]; [ Int 1 ]; [ Null ] ] in
  let b = rel [ ("PNUM", Value.Tint) ] Value.[ [ Int 1 ]; [ Null ] ] in
  (* plain select: set comparison — duplicate multiplicity is the §5.4
     residue, not a bug; NULL must still compare equal to itself *)
  Alcotest.(check bool) "set: dup multiplicity tolerated" true
    (Matrix.results_agree ~q:q_plain ~reference:a ~got:b);
  let c = rel [ ("PNUM", Value.Tint) ] Value.[ [ Int 1 ] ] in
  Alcotest.(check bool) "set: missing NULL row detected" false
    (Matrix.results_agree ~q:q_plain ~reference:a ~got:c);
  (* DISTINCT fixes multiplicities: bag comparison *)
  let q_distinct =
    Workload.Fixtures.parse_analyzed
      (Repro.build_db sample_case |> Core.catalog)
      "SELECT DISTINCT PNUM FROM PARTS"
  in
  Alcotest.(check bool) "bag: duplicate row is a mismatch" false
    (Matrix.results_agree ~q:q_distinct ~reference:b
       ~got:
         (rel [ ("PNUM", Value.Tint) ]
            Value.[ [ Int 1 ]; [ Int 1 ]; [ Null ] ]))

let test_comparator_order () =
  let q =
    Workload.Fixtures.parse_analyzed
      (Repro.build_db sample_case |> Core.catalog)
      "SELECT PNUM FROM PARTS ORDER BY PNUM DESC"
  in
  let sorted = rel [ ("PNUM", Value.Tint) ] Value.[ [ Int 2 ]; [ Int 1 ] ] in
  let unsorted = rel [ ("PNUM", Value.Tint) ] Value.[ [ Int 1 ]; [ Int 2 ] ] in
  Alcotest.(check bool) "sorted accepted" true
    (Matrix.results_agree ~q ~reference:sorted ~got:sorted);
  Alcotest.(check bool) "same rows, wrong order rejected" false
    (Matrix.results_agree ~q ~reference:sorted ~got:unsorted)

(* --- matrix detector ------------------------------------------------------ *)

(* The matrix on a healthy case: every cell agrees or refuses. *)
let test_matrix_clean_case () =
  let result = Matrix.run_case sample_case in
  Alcotest.(check bool) "reference ran" true
    (Result.is_ok result.Matrix.reference);
  Alcotest.(check int) "grid size" 22 (List.length result.Matrix.outcomes);
  Alcotest.(check (list string)) "no discrepancies" []
    (Matrix.describe result)

(* The reference raising is itself a failing case (the fuzzer would shrink
   and report it): a scalar subquery returning two rows. *)
let test_fails_on_reference_error () =
  let case =
    {
      Repro.tables =
        [
          parts Value.[ [ Int 1; Int 2 ] ];
          supply
            Value.[ [ Int 1; Int 5; d 1979 6 1 ]; [ Int 1; Int 3; d 1980 2 1 ] ];
        ];
      sql = "SELECT PNUM FROM PARTS WHERE QOH = (SELECT QUAN FROM SUPPLY)";
    }
  in
  Alcotest.(check bool) "runtime error counts as failing" true
    (Driver.fails case)

(* --- shrinker ------------------------------------------------------------- *)

let test_shrinker_minimizes () =
  (* Synthetic predicate: "PARTS still has a row with QOH = 3" — ddmin
     must reduce PARTS to exactly that one row and simplify its other
     cell, and empty SUPPLY entirely. *)
  let case =
    {
      Repro.tables =
        [
          parts
            Value.
              [
                [ Int 1; Int 2 ]; [ Int 4; Int 3 ]; [ Int 2; Int 0 ];
                [ Null; Int 1 ]; [ Int 3; Int 4 ];
              ];
          supply
            Value.[ [ Int 1; Int 5; d 1979 6 1 ]; [ Int 2; Int 3; d 1980 2 1 ] ];
        ];
      sql = "SELECT PNUM FROM PARTS";
    }
  in
  let still_fails (c : Repro.case) =
    List.exists
      (fun row -> Value.compare (Relalg.Row.get row 1) (Value.Int 3) = 0)
      (Relation.rows (List.assoc "PARTS" c.Repro.tables))
  in
  let small = Shrink.minimize ~still_fails case in
  let parts_rows = Relation.rows (List.assoc "PARTS" small.Repro.tables) in
  Alcotest.(check int) "PARTS down to one row" 1 (List.length parts_rows);
  Alcotest.(check bool) "the witness row survives" true
    (still_fails small);
  Alcotest.(check int) "SUPPLY emptied" 0
    (Relation.cardinality (List.assoc "SUPPLY" small.Repro.tables));
  (* cell simplification: the PNUM cell is irrelevant to the predicate and
     must have been nulled *)
  Alcotest.(check bool) "irrelevant cell simplified to NULL" true
    (Value.is_null (Relalg.Row.get (List.hd parts_rows) 0))

(* --- fuzz smoke and regression replay ------------------------------------- *)

let test_fuzz_smoke () =
  let report = Driver.run ~seed:7 ~count:200 () in
  Alcotest.(check int) "all cases ran" 200 report.Driver.cases;
  Alcotest.(check bool) "most cells executed" true (report.Driver.executed > 2000);
  Alcotest.(check int) "zero discrepancies" 0
    (List.length report.Driver.discrepancies)

let regressions_dir = "../examples/queries/regressions"

let test_replay_regressions () =
  let files =
    Sys.readdir regressions_dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".sql")
  in
  Alcotest.(check bool) "corpus present" true (List.length files >= 8);
  List.iter
    (fun f ->
      match Driver.replay (Filename.concat regressions_dir f) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s" msg)
    files

let suites =
  [
    ( "oracle.repro",
      [
        Alcotest.test_case "round trip" `Quick test_repro_roundtrip;
        Alcotest.test_case "prose comments" `Quick test_repro_prose_comments;
        Alcotest.test_case "bad input" `Quick test_repro_bad_input;
      ] );
    ( "oracle.matrix",
      [
        Alcotest.test_case "comparator bag/set/NULL" `Quick test_comparator;
        Alcotest.test_case "comparator ORDER BY" `Quick test_comparator_order;
        Alcotest.test_case "clean case: 22 cells" `Quick test_matrix_clean_case;
        Alcotest.test_case "reference error detected" `Quick
          test_fails_on_reference_error;
      ] );
    ( "oracle.shrink",
      [ Alcotest.test_case "ddmin + cell simplification" `Quick
          test_shrinker_minimizes ] );
    ( "oracle.fuzz",
      [
        Alcotest.test_case "smoke: 200 cases, seed 7" `Quick test_fuzz_smoke;
        Alcotest.test_case "replay regression corpus" `Quick
          test_replay_regressions;
      ] );
  ]

(* The public facade: the five-line API a downstream user sees. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module F = Workload.Fixtures

let make_parts_db () =
  let db = Core.create_db ~buffer_pages:8 ~page_bytes:64 () in
  let define name rel =
    Core.define_table db name
      (List.map
         (fun (c : Core.Schema.column) -> (c.name, c.ty))
         (Core.Schema.columns (Relation.schema rel)))
      (List.map Relalg.Row.to_list (Relation.rows rel))
  in
  define "PARTS" F.kiessling_parts;
  define "SUPPLY" F.kiessling_supply;
  db

let test_define_and_table () =
  let db = make_parts_db () in
  Alcotest.(check int) "parts cardinality" 3
    (Relation.cardinality (Core.table db "PARTS"));
  Alcotest.(check bool) "unknown table raises" true
    (try
       ignore (Core.table db "NOPE");
       false
     with Core.Catalog.Unknown_table _ -> true)

let test_parse_and_classify () =
  let db = make_parts_db () in
  (match Core.parse db F.query_q2 with
  | Ok q -> Alcotest.(check int) "depth" 1 (Sql.Ast.nesting_depth q)
  | Error e -> Alcotest.failf "parse: %s" e);
  (match Core.classify db F.query_q2 with
  | Ok (Some Optimizer.Classify.Type_ja) -> ()
  | _ -> Alcotest.fail "classification");
  match Core.parse db "SELECT NOPE FROM PARTS" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected analysis error"

let test_run_strategies_agree () =
  let db = make_parts_db () in
  let nested =
    Result.get_ok (Core.run ~strategy:Core.Nested_iteration db F.query_q2)
  in
  let transformed =
    Result.get_ok
      (Core.run ~strategy:(Core.Transformed Optimizer.Planner.Auto) db
         F.query_q2)
  in
  Alcotest.(check bool) "nested is not transformed" false
    (nested.Core.via = Core.Via_transformed);
  Alcotest.(check bool) "transformed is" true
    (transformed.Core.via = Core.Via_transformed);
  Alcotest.(check bool) "program attached" true
    (transformed.Core.program <> None);
  Alcotest.(check bool) "results equal" true
    (Relation.equal_bag nested.Core.result transformed.Core.result);
  (* temps are cleaned up: the run can be repeated *)
  let again =
    Result.get_ok
      (Core.run ~strategy:(Core.Transformed Optimizer.Planner.Auto) db
         F.query_q2)
  in
  Alcotest.(check bool) "repeatable" true
    (Relation.equal_bag transformed.Core.result again.Core.result)

let test_auto_falls_back () =
  let db = make_parts_db () in
  (* = ALL has no §8 transformation: Auto must fall back. *)
  let e =
    Result.get_ok
      (Core.run db "SELECT PNUM FROM PARTS WHERE QOH = ALL (SELECT QUAN \
                    FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 4)")
  in
  Alcotest.(check bool) "fell back to nested iteration" false
    (e.Core.via = Core.Via_transformed);
  Alcotest.(check int) "correct answer" 2 (Relation.cardinality e.Core.result)

let test_compare_strategies () =
  let db = make_parts_db () in
  let c = Result.get_ok (Core.compare_strategies db F.query_q2) in
  Alcotest.(check bool) "agree" true c.Core.agree;
  Alcotest.(check bool) "transformed present" true (c.Core.transformed <> None)

let test_explain_output () =
  let db = make_parts_db () in
  let text = Result.get_ok (Core.explain_query db F.query_q2) in
  Alcotest.(check bool) "mentions merge or nested-loop join" true
    (let has needle =
       let re = ref false in
       String.iteri
         (fun i _ ->
           if
             i + String.length needle <= String.length text
             && String.sub text i (String.length needle) = needle
           then re := true)
         text;
       !re
     in
     has "join" && has "Scan")

let test_io_accounting_isolated () =
  let db = make_parts_db () in
  let e1 = Result.get_ok (Core.run ~strategy:Core.Nested_iteration db F.query_q2) in
  let e2 = Result.get_ok (Core.run ~strategy:Core.Nested_iteration db F.query_q2) in
  (* Second run may be cheaper (pool warm) but never negative, and logical
     reads must be equal. *)
  Alcotest.(check int) "same logical reads"
    e1.Core.io.Core.Pager.logical_reads e2.Core.io.Core.Pager.logical_reads;
  Alcotest.(check bool) "non-negative" true
    (e2.Core.io.Core.Pager.physical_reads >= 0)

let int_table db name columns rows =
  Core.define_table db name
    (List.map (fun c -> (c, Value.Tint)) columns)
    (List.map
       (List.map (function Some n -> Value.Int n | None -> Value.Null))
       rows)

(* [x != ANY S] with NULLs on both sides: [0 < COUNT(... AND x != item)]
   is True exactly when [x != ANY S] is, so NEST-G transforms it, and in
   both modes Auto's transformed pick returns nested iteration's rows. *)
let test_ne_any_nullable_transforms () =
  let db = Core.create_db () in
  int_table db "PARTS" [ "PNUM"; "QOH" ]
    [
      [ Some 3; Some 6 ]; [ Some 10; None ]; [ Some 8; Some 0 ];
      [ Some 5; Some 2 ];
    ];
  int_table db "SUPPLY" [ "PNUM"; "QUAN" ]
    [
      [ Some 3; Some 4 ]; [ Some 3; None ]; [ Some 10; Some 1 ];
      [ Some 8; None ]; [ Some 8; Some 0 ]; [ Some 5; Some 2 ];
    ];
  let sql =
    "SELECT PNUM FROM PARTS WHERE QOH <> ANY (SELECT QUAN FROM SUPPLY WHERE \
     SUPPLY.PNUM = PARTS.PNUM)"
  in
  let q = Result.get_ok (Core.parse db sql) in
  let reference = Exec.Nested_iter.run (Core.catalog db) q in
  Alcotest.(check (list int)) "reference: only PNUM 3" [ 3 ]
    (List.map
       (fun r -> match Relalg.Row.get r 0 with Value.Int n -> n | _ -> -1)
       (Relation.rows reference));
  List.iter
    (fun mode ->
      let e = Result.get_ok (Core.run ~mode db sql) in
      Alcotest.(check string) "transformed" "transformed"
        (Core.via_name e.Core.via);
      Alcotest.(check bool) "agrees with nested iteration" true
        (Oracle.Matrix.results_agree ~q ~reference ~got:e.Core.result))
    [ Optimizer.Planner.Paper1987; Optimizer.Planner.Hybrid ]

(* A DISTINCT result is listed sorted whichever strategy ran.  The hybrid
   program dedups by hashing and keeps first-occurrence order (10, 3, 8);
   Auto's transformed pick still lists the rows in nested iteration's
   order. *)
let test_distinct_listed_sorted () =
  let db = Core.create_db () in
  int_table db "SUPPLY" [ "PNUM"; "QUAN" ]
    [
      [ Some 10; Some 1 ]; [ Some 3; Some 2 ]; [ Some 8; Some 1 ];
      [ Some 10; Some 2 ]; [ Some 3; Some 1 ];
    ];
  int_table db "PARTS" [ "PNUM"; "QOH" ]
    [ [ Some 1; Some 1 ]; [ Some 2; Some 2 ] ];
  let sql =
    "SELECT DISTINCT PNUM FROM SUPPLY WHERE QUAN IN (SELECT QOH FROM PARTS)"
  in
  let catalog = Core.catalog db in
  let program = Result.get_ok (Core.transform db sql) in
  let hashed =
    Optimizer.Planner.run_program ~mode:Optimizer.Planner.Hybrid catalog
      program
  in
  Optimizer.Planner.drop_temps catalog program;
  let rows rel = List.map Relalg.Row.to_list (Relation.rows rel) in
  Alcotest.(check bool) "the hybrid plan's order is not sorted" false
    (rows hashed = rows (Relation.distinct hashed));
  let auto =
    Result.get_ok (Core.run ~mode:Optimizer.Planner.Hybrid db sql)
  in
  let nested =
    Result.get_ok (Core.run ~strategy:Core.Nested_iteration db sql)
  in
  Alcotest.(check string) "Auto transforms" "transformed"
    (Core.via_name auto.Core.via);
  Alcotest.(check bool) "same rows in the same order" true
    (rows auto.Core.result = rows nested.Core.result)

(* Executor failures reach the caller as an [Error], never as an
   exception: a run-time error under nested iteration or batched bindings
   is the statement's, and a repeated aggregate plans under every
   strategy, as nested iteration answers it. *)
let test_executor_failures_are_errors () =
  let strategies =
    Core.
      [
        Auto;
        Nested_iteration;
        Batched Optimizer.Planner.Auto;
        Transformed Optimizer.Planner.Auto;
      ]
  in
  let db = Fixtures.count_bug_db () in
  (* SUPPLY has several QUAN rows: SQL's answer is the error, and NEST-N-J
     refuses the merge that would answer rows instead *)
  let runtime = "SELECT PNUM FROM PARTS WHERE QOH = (SELECT QUAN FROM SUPPLY)" in
  List.iter
    (fun strategy ->
      (match (strategy, Core.run ~strategy db runtime) with
      | _, Ok e ->
          Alcotest.failf "%s answered %d rows" (Core.strategy_name strategy)
            (Relation.cardinality e.Core.result)
      | Core.Transformed _, Error msg ->
          Alcotest.(check bool) ("transformed refuses: " ^ msg) true
            (String.starts_with ~prefix:"not transformable: scalar comparison"
               msg)
      | _, Error msg ->
          Alcotest.(check string) "the runtime error"
            "runtime error: scalar subquery returned more than one row" msg);
      ignore (Core.explain_query ~strategy ~analyze:true db runtime))
    strategies;
  List.iter
    (fun sql ->
      let nested =
        Result.get_ok (Core.run ~strategy:Core.Nested_iteration db sql)
      in
      List.iter
        (fun strategy ->
          match Core.run ~strategy db sql with
          | Error msg -> Alcotest.failf "%s: %s" sql msg
          | Ok e ->
              Alcotest.(check bool) ("same rows: " ^ sql) true
                (Relation.equal_bag nested.Core.result e.Core.result))
        strategies)
    [
      "SELECT COUNT(QUAN), COUNT(QUAN) FROM SUPPLY";
      "SELECT PNUM, MAX(QUAN), MAX(QUAN) FROM SUPPLY GROUP BY PNUM";
    ];
  ignore (Core.check_source db runtime)

let suites =
  [
    ( "core.facade",
      [
        Alcotest.test_case "define/table" `Quick test_define_and_table;
        Alcotest.test_case "parse/classify" `Quick test_parse_and_classify;
        Alcotest.test_case "strategies agree" `Quick test_run_strategies_agree;
        Alcotest.test_case "auto falls back" `Quick test_auto_falls_back;
        Alcotest.test_case "compare" `Quick test_compare_strategies;
        Alcotest.test_case "explain" `Quick test_explain_output;
        Alcotest.test_case "io accounting" `Quick test_io_accounting_isolated;
        Alcotest.test_case "!= ANY over NULLs transforms" `Quick
          test_ne_any_nullable_transforms;
        Alcotest.test_case "DISTINCT listed sorted by every strategy" `Quick
          test_distinct_listed_sorted;
        Alcotest.test_case "executor failures are errors" `Quick
          test_executor_failures_are_errors;
      ] );
  ]

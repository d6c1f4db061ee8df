(* The batched-bindings strategy (Optimizer.Batched_nest).

   Two layers: qcheck properties asserting batched ≡ nested iteration per
   Kim query type over adversarial data profiles (NULL-dense columns,
   duplicate-skewed keys, empty relations on either side), and goldens
   pinning the batching arithmetic itself — dedup counts at batch
   boundaries (duplicate and NULL keys share a binding), the uncorrelated
   degenerate case, the refused-then-batched ladder, and the execution
   record surfaced through [Core.run]. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Planner = Optimizer.Planner
module Batched = Optimizer.Batched_nest
module G = Workload.Gen
module Matrix = Oracle.Matrix
module Repro = Oracle.Repro

let refusal msg =
  Astring.String.is_prefix ~affix:"not transformable:" msg

(* ------------------------------------------------------------------ *)
(* Properties: batched ≡ nested iteration per Kim type                 *)
(* ------------------------------------------------------------------ *)

(* Data profiles the rewrites have historically been wrong on, and which
   stress exactly what batching adds: NULL keys must form one batch,
   duplicate-skewed keys must dedup, empty relations must short-circuit. *)
let adversarial_case rng qgen : Repro.case =
  let null_pct, key_range, n_parts, n_supply =
    match G.pick rng [ `Null_dense; `Dup_skew; `Empty ] with
    | `Null_dense -> (40, 3, G.int_in rng 1 6, G.int_in rng 1 9)
    | `Dup_skew -> (10, 1, G.int_in rng 2 8, G.int_in rng 3 12)
    | `Empty -> (15, 2, G.pick rng [ 0; 0; 3 ], G.pick rng [ 0; 0; 5 ])
  in
  {
    Repro.tables =
      [
        ("PARTS", G.parts ~null_pct rng ~n:n_parts ~key_range);
        ("SUPPLY", G.supply ~null_pct rng ~n:n_supply ~key_range);
      ];
    sql = qgen rng;
  }

(* Batched must agree with the non-optimizing reference under the oracle
   comparator; the only acceptable non-answer is the documented refusal
   (correlated column outside a WHERE predicate). *)
let batched_matches_reference ~name qgen =
  QCheck2.Test.make ~name ~count:80
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let case = adversarial_case rng qgen in
      match Matrix.run_reference case with
      | Error _ -> QCheck2.assume_fail ()
      | Ok reference -> (
          let db = Repro.build_db case in
          let q =
            match Core.parse db case.Repro.sql with
            | Ok q -> q
            | Error e -> QCheck2.Test.fail_reportf "parse: %s" e
          in
          match
            Core.run ~strategy:(Core.Batched Planner.Auto) db case.Repro.sql
          with
          | Ok e ->
              Matrix.results_agree ~q ~reference ~got:e.Core.result
              || QCheck2.Test.fail_reportf "batched disagrees on %s"
                   case.Repro.sql
          | Error msg ->
              refusal msg
              || QCheck2.Test.fail_reportf "batched failed on %s: %s"
                   case.Repro.sql msg
          | exception Exec.Nested_iter.Runtime_error msg ->
              QCheck2.Test.fail_reportf
                "batched raised %S where the reference answered on %s" msg
                case.Repro.sql))

let prop_type_n =
  batched_matches_reference ~name:"batched ≡ nested: type-N" G.n_query

let prop_type_a =
  batched_matches_reference ~name:"batched ≡ nested: type-A" G.a_query

let prop_type_j =
  batched_matches_reference ~name:"batched ≡ nested: type-J" G.j_query

let prop_type_ja =
  batched_matches_reference ~name:"batched ≡ nested: type-JA" G.ja_query

let prop_deep =
  batched_matches_reference ~name:"batched ≡ nested: multi-level" G.deep_query

(* ------------------------------------------------------------------ *)
(* Goldens: the batching arithmetic                                    *)
(* ------------------------------------------------------------------ *)

let db_with_parts_pnums pnums =
  let db = Core.create_db ~buffer_pages:8 ~page_bytes:256 () in
  Core.define_table db "PARTS"
    [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
    (List.map (fun p -> [ p; Value.Int 1 ]) pnums);
  Core.define_table db "SUPPLY"
    [ ("PNUM", Value.Tint); ("QUAN", Value.Tint); ("SHIPDATE", Value.Tdate) ]
    [ [ Value.Int 1; Value.Int 1; Value.Null ];
      [ Value.Int 2; Value.Int 1; Value.Null ] ];
  db

let ja_sql =
  "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY WHERE \
   SUPPLY.PNUM = PARTS.PNUM)"

let run_batched db sql =
  Batched.run (Core.catalog db)
    (Workload.Fixtures.parse_analyzed (Core.catalog db) sql)

(* Run the batched plan instrumented; return the result with the per-key
   Apply's outer rows and its first subquery's loops (the bindings it was
   evaluated under). *)
let run_measured db sql =
  let catalog = Core.catalog db in
  let q = Workload.Fixtures.parse_analyzed catalog sql in
  let plan = Batched.lower catalog q in
  let session = Exec.Explain.session (Storage.Catalog.pager catalog) in
  let result = Planner.run_segments ~session catalog (Planner.Plan plan) in
  let rec find_apply = function
    | Exec.Plan.Apply a -> a
    | n -> (
        match Exec.Plan.children n with
        | [ child ] -> find_apply child
        | _ -> Alcotest.fail "expected a per-key Apply")
  in
  let a = find_apply plan in
  let count f node =
    Option.fold ~none:0 ~some:f (Exec.Explain.metrics session node)
  in
  let inner =
    match a.Exec.Plan.preds with
    | (_, Some sp) :: _ -> sp.Exec.Plan.inner
    | _ -> Alcotest.fail "expected a nested predicate"
  in
  ( result,
    count (fun m -> m.Exec.Metrics.rows) a.Exec.Plan.outer,
    count (fun m -> m.Exec.Metrics.loops) inner )

(* Duplicate and NULL outer keys collapse: 7 outer rows over key values
   [1;1;2;2;2;NULL;NULL] are exactly 3 bindings — the null-safe dedup
   treats the two NULLs as one key and never as distinct rows. *)
let test_dedup_counts () =
  let pnums =
    Value.[ Int 1; Int 1; Int 2; Int 2; Int 2; Null; Null ]
  in
  let result, outer_rows, bindings =
    run_measured (db_with_parts_pnums pnums) ja_sql
  in
  Alcotest.(check int) "outer rows" 7 outer_rows;
  Alcotest.(check int) "bindings" 3 bindings;
  (* COUNT = 0 for the NULL key (= no SUPPLY match) never equals QOH = 1,
     and keys 1 and 2 each count one supply row = QOH *)
  Alcotest.(check int) "result rows" 5 (Relation.cardinality result)

(* An empty outer block needs no inner evaluation at all. *)
let test_empty_outer () =
  let result, outer_rows, bindings =
    run_measured (db_with_parts_pnums []) ja_sql
  in
  Alcotest.(check int) "no outer rows" 0 outer_rows;
  Alcotest.(check int) "no bindings" 0 bindings;
  Alcotest.(check int) "empty result" 0 (Relation.cardinality result)

(* An uncorrelated subquery has no correlation keys: it is evaluated once
   whatever the outer rows (type-A degenerates to memoization). *)
let test_uncorrelated_records_no_batches () =
  let result, outer_rows, evaluations =
    run_measured
      (db_with_parts_pnums Value.[ Int 1; Int 2 ])
      "SELECT PNUM FROM PARTS WHERE QOH <= (SELECT COUNT(QUAN) FROM SUPPLY)"
  in
  Alcotest.(check int) "two outer rows" 2 outer_rows;
  Alcotest.(check int) "evaluated once" 1 evaluations;
  Alcotest.(check int) "both rows kept" 2 (Relation.cardinality result)

(* [Ast.correlation_keys] is the static face of the same analysis: the
   keys a per-key Apply binds. *)
let test_correlation_keys () =
  let db = Fixtures.count_bug_db () in
  let sub_of sql =
    let q = Workload.Fixtures.parse_analyzed (Core.catalog db) sql in
    match q.Sql.Ast.where with
    | [ Sql.Ast.Cmp_subq (_, _, sub) ] -> sub
    | _ -> Alcotest.fail "expected one scalar-subquery predicate"
  in
  let keys sub =
    match Sql.Ast.correlation_keys sub with
    | Ok keys -> keys
    | Error _ -> Alcotest.fail "expected batchable correlation keys"
  in
  let keys' = keys (sub_of Fixtures.count_bug_query) in
  Alcotest.(check (list string)) "batches on PARTS.PNUM" [ "PARTS.PNUM" ]
    (List.map
       (fun (c : Sql.Ast.col_ref) ->
         Option.value c.Sql.Ast.table ~default:"?" ^ "." ^ c.Sql.Ast.column)
       keys');
  Alcotest.(check (list string)) "uncorrelated has none" []
    (List.map
       (fun (c : Sql.Ast.col_ref) -> c.Sql.Ast.column)
       (keys
          (sub_of
             "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM \
              SUPPLY)")))

(* Static EXPLAIN (no ~analyze) shows the per-key Apply naming the
   correlation key it is evaluated on, but no actuals — the query must not
   run. *)
let test_static_explain () =
  let db = db_with_parts_pnums Value.[ Int 1; Int 2 ] in
  let text =
    match
      Core.explain_query ~strategy:(Core.Batched Planner.Auto) db ja_sql
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "the Apply names the correlation key" true
    (Astring.String.is_infix
       ~affix:"Apply per key: PARTS.QOH = (SELECT ...) on PARTS.PNUM" text);
  Alcotest.(check bool) "no actuals statically" false
    (Astring.String.is_infix ~affix:"actual:" text)

(* Correlated [NOT] EXISTS batches like any other WHERE subquery; an
   empty inner relation makes EXISTS vacuously false and NOT EXISTS
   vacuously true for every binding. *)
let test_exists_batching () =
  let db = db_with_parts_pnums Value.[ Int 1; Int 2; Int 9 ] in
  let exists_sql =
    "SELECT PNUM FROM PARTS WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE \
     SUPPLY.PNUM = PARTS.PNUM)"
  and not_exists_sql =
    "SELECT PNUM FROM PARTS WHERE NOT EXISTS (SELECT QUAN FROM SUPPLY \
     WHERE SUPPLY.PNUM = PARTS.PNUM)"
  in
  let rows sql =
    (run_batched db sql).Batched.relation |> Relation.rows |> List.length
  in
  (* keys 1 and 2 have SUPPLY rows; 9 does not *)
  Alcotest.(check int) "EXISTS keeps supplied keys" 2 (rows exists_sql);
  Alcotest.(check int) "NOT EXISTS keeps the unsupplied key" 1
    (rows not_exists_sql);
  let reference sql =
    Exec.Nested_iter.run (Core.catalog db)
      (Workload.Fixtures.parse_analyzed (Core.catalog db) sql)
  in
  List.iter
    (fun sql ->
      Alcotest.(check bool) "batched ≡ nested" true
        (Relation.equal_bag (reference sql)
           (run_batched db sql).Batched.relation))
    [ exists_sql; not_exists_sql ]

(* ------------------------------------------------------------------ *)
(* Free-variable analysis (Sql.Ast.free_col_refs)                      *)
(* ------------------------------------------------------------------ *)

let parse_on db sql = Workload.Fixtures.parse_analyzed (Core.catalog db) sql

let first_sub (q : Sql.Ast.query) =
  match q.Sql.Ast.where with
  | Sql.Ast.Cmp_subq (_, _, sub) :: _ -> sub
  | _ -> Alcotest.fail "expected a leading scalar-subquery predicate"

(* An inner block re-binding SUPPLY shadows it: the outer subquery's only
   free reference is PARTS.PNUM, deduplicated across its two occurrences
   (one of them inside the nested block), and classified [`Predicate]. *)
let test_free_refs_shadowing () =
  let db = Fixtures.count_bug_db () in
  let sub =
    first_sub
      (parse_on db
         "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
          WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN = (SELECT COUNT(QUAN) \
          FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM))")
  in
  match Sql.Ast.free_col_refs sub with
  | [ (c, `Predicate) ] ->
      Alcotest.(check string) "table" "PARTS"
        (Option.value c.Sql.Ast.table ~default:"?");
      Alcotest.(check string) "column" "PNUM" c.Sql.Ast.column
  | refs -> Alcotest.failf "expected one predicate-position ref, got %d"
              (List.length refs)

(* A free reference inside an aggregate argument is an [`Other] position.
   The analyzer already rejects that shape in this dialect (aggregate
   arguments resolve against the local frame only), so the lowering's
   guard is exercised on the raw parsed AST — the defensive path for
   hand-built queries. *)
let test_unbatchable_position_refuses () =
  let sql =
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(PARTS.QOH) FROM SUPPLY)"
  in
  let sub = first_sub (Sql.Parser.parse_exn sql) in
  (match Sql.Ast.free_col_refs sub with
  | [ (c, `Other) ] ->
      Alcotest.(check string) "column" "QOH" c.Sql.Ast.column
  | _ -> Alcotest.fail "expected one other-position free ref");
  let db = Fixtures.count_bug_db () in
  match Batched.lower (Core.catalog db) (Sql.Parser.parse_exn sql) with
  | exception Batched.Unsupported msg ->
      Alcotest.(check bool) "message names the column" true
        (Astring.String.is_infix ~affix:"QOH" msg)
  | _ -> Alcotest.fail "expected Unsupported on an aggregate-argument ref"

(* ------------------------------------------------------------------ *)
(* The estimator behind Auto                                           *)
(* ------------------------------------------------------------------ *)

(* Duplicate-skewed keys make batching attractive; all-distinct keys make
   it pointless (as many inner evaluations as nested iteration). *)
let test_estimate_prefers_batched_on_skew () =
  let skew_db =
    let db = Core.create_db ~buffer_pages:8 ~page_bytes:256 () in
    Core.define_table db "PARTS"
      [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
      (List.init 40 (fun i -> [ Value.Int (i mod 2); Value.Int 1 ]));
    Core.define_table db "SUPPLY"
      [ ("PNUM", Value.Tint); ("QUAN", Value.Tint) ]
      [ [ Value.Int 0; Value.Int 1 ]; [ Value.Int 1; Value.Int 2 ] ];
    db
  in
  let q =
    parse_on skew_db
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)"
  in
  Alcotest.(check bool) "2 distinct keys over 40 rows: batched" true
    (Optimizer.Estimate.prefer_batched (Core.catalog skew_db) q);
  (* two distinct keys: PARTS read once, SUPPLY once per key *)
  let pages rel = float_of_int (Storage.Catalog.pages (Core.catalog skew_db) rel) in
  Alcotest.(check (option (float 0.))) "batched cost: one evaluation per key"
    (Some (pages "PARTS" +. (2. *. pages "SUPPLY")))
    (Optimizer.Estimate.batched_cost (Core.catalog skew_db) q);
  let unique_db =
    let db = Core.create_db ~buffer_pages:8 ~page_bytes:256 () in
    Core.define_table db "PARTS"
      [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
      (List.init 40 (fun i -> [ Value.Int i; Value.Int 1 ]));
    Core.define_table db "SUPPLY"
      [ ("PNUM", Value.Tint); ("QUAN", Value.Tint) ]
      [ [ Value.Int 0; Value.Int 1 ] ];
    db
  in
  let q =
    parse_on unique_db
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)"
  in
  Alcotest.(check bool) "all-distinct keys: no batched preference" false
    (Optimizer.Estimate.prefer_batched (Core.catalog unique_db) q)

(* strategy_of_string accepts what the CLI/REPL/server advertise and
   round-trips through strategy_name. *)
let test_strategy_names () =
  let names s =
    Option.map Core.strategy_name (Core.strategy_of_string s)
  in
  Alcotest.(check (option string)) "auto" (Some "auto") (names "auto");
  Alcotest.(check (option string)) "nested" (Some "nested") (names "nested");
  Alcotest.(check (option string)) "nested-iteration alias" (Some "nested")
    (names "nested-iteration");
  Alcotest.(check (option string)) "transformed" (Some "transformed")
    (names "Transformed");
  Alcotest.(check (option string)) "batched" (Some "batched")
    (names "BATCHED");
  Alcotest.(check (option string)) "unknown" None (names "sideways")

(* ------------------------------------------------------------------ *)
(* Planner knob sweep and runtime-error parity                         *)
(* ------------------------------------------------------------------ *)

(* The forced-join knob steers the outer-block plan and the engine knob,
   kept for callers that still name one, steers nothing; none of them may
   change the answer. *)
let test_forced_joins_and_engines_agree () =
  let db = Fixtures.count_bug_db () in
  let q = parse_on db Fixtures.count_bug_query in
  let baseline =
    (Batched.run (Core.catalog db) q).Batched.relation
  in
  List.iter
    (fun force ->
      List.iter
        (fun engine ->
          List.iter
            (fun mode ->
              let db = Fixtures.count_bug_db () in
              let q = parse_on db Fixtures.count_bug_query in
              let got =
                (Batched.run ~force ~mode ~engine (Core.catalog db) q)
                  .Batched.relation
              in
              Alcotest.(check bool) "knobs do not change the answer" true
                (Relation.equal_bag baseline got))
            [ Planner.Paper1987; Planner.Hybrid ])
        [ Exec.Plan.Tuple; Exec.Plan.Vectorized ])
    [ Planner.Auto; Planner.Force_nl; Planner.Force_merge; Planner.Force_hash ]

(* A multi-row scalar subquery is a runtime error in nested iteration;
   batched must fail with the identical error, not return an arbitrary
   row, and through [Core] that error is the statement's [Error]. *)
let test_runtime_error_parity () =
  let db = Core.create_db ~buffer_pages:8 ~page_bytes:256 () in
  Core.define_table db "PARTS"
    [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
    [ [ Value.Int 1; Value.Int 5 ] ];
  Core.define_table db "SUPPLY"
    [ ("PNUM", Value.Tint); ("QUAN", Value.Tint) ]
    [ [ Value.Int 1; Value.Int 5 ]; [ Value.Int 1; Value.Int 7 ] ];
  let sql =
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT QUAN FROM SUPPLY WHERE \
     SUPPLY.PNUM = PARTS.PNUM)"
  in
  let raised run =
    match run () with
    | exception Exec.Nested_iter.Runtime_error msg -> Some msg
    | _ -> None
  in
  let reference =
    raised (fun () -> Exec.Nested_iter.run (Core.catalog db) (parse_on db sql))
  in
  let batched =
    match Core.run ~strategy:(Core.Batched Planner.Auto) db sql with
    | Error msg -> Some msg
    | Ok _ -> None
  in
  Alcotest.(check bool) "reference raises" true (reference <> None);
  Alcotest.(check (option string)) "same runtime error"
    (Option.map (( ^ ) "runtime error: ") reference)
    batched

(* ------------------------------------------------------------------ *)
(* The ladder: rewrite refuses, batched answers                        *)
(* ------------------------------------------------------------------ *)

(* = ALL is a refused shape: §8 has no transformation for it, but
   batching needs none.  Batched must agree with nested iteration where the
   rewrite only refuses. *)
let test_refused_shape_batched_answers () =
  let sql =
    "SELECT PNUM FROM PARTS WHERE QOH = ALL (SELECT QUAN FROM SUPPLY WHERE \
     SUPPLY.PNUM = PARTS.PNUM AND QUAN > 4)"
  in
  let run strategy =
    Core.run ~strategy (Fixtures.count_bug_db ()) sql
  in
  (match run (Core.Transformed Planner.Auto) with
  | Error msg -> Alcotest.(check bool) "rewrite refuses" true (refusal msg)
  | Ok _ -> Alcotest.fail "expected the rewrite to refuse = ALL");
  match (run (Core.Batched Planner.Auto), run Core.Nested_iteration) with
  | Ok b, Ok n ->
      let db = Fixtures.count_bug_db () in
      let q = Workload.Fixtures.parse_analyzed (Core.catalog db) sql in
      Alcotest.(check bool) "batched ≡ nested on the refused shape" true
        (Matrix.results_agree ~q ~reference:n.Core.result ~got:b.Core.result);
      Alcotest.(check bool) "batched is reported as batched" true
        (b.Core.via = Core.Via_batched)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* Batched agrees with the *verified* transformed program where both
   answer — the rewrite path re-checked by the structural verifier, so the
   two independent implementations cross-check each other. *)
let test_batched_vs_verified_program () =
  let db = Fixtures.count_bug_db () in
  let q =
    Workload.Fixtures.parse_analyzed (Core.catalog db)
      Fixtures.count_bug_query
  in
  let program =
    match Core.transform db Fixtures.count_bug_query with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let transformed =
    Fixtures.run_verified (Core.catalog db) program
  in
  Planner.drop_temps (Core.catalog db) program;
  let batched = run_batched db Fixtures.count_bug_query in
  Alcotest.(check bool) "batched ≡ verified transformed" true
    (Matrix.results_agree ~q
       ~reference:(Exec.Presentation.apply_order q transformed)
       ~got:batched.Batched.relation)

(* The execution record through Core.run, and EXPLAIN ANALYZE of the
   same plan: the Apply's loops are the distinct keys, and the result the
   same rows. *)
let test_core_run_surfaces_batches () =
  match
    Core.run
      ~strategy:(Core.Batched Planner.Auto)
      (Fixtures.count_bug_db ())
      Fixtures.count_bug_query
  with
  | Error e -> Alcotest.fail e
  | Ok e ->
      Alcotest.(check bool) "via batched" true (e.Core.via = Core.Via_batched);
      Alcotest.(check bool) "no transformation used" false
        (e.Core.via = Core.Via_transformed);
      let db = Fixtures.count_bug_db () in
      let distinct_keys =
        List.length
          (List.sort_uniq Value.compare
             (List.map
                (fun r -> Relalg.Row.get r 0)
                (Relation.rows (Core.table db "PARTS"))))
      in
      let text =
        match
          Core.explain_query ~analyze:true
            ~strategy:(Core.Batched Planner.Auto)
            db Fixtures.count_bug_query
        with
        | Ok t -> t
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "explain names the strategy" true
        (Astring.String.is_infix ~affix:"strategy: batched" text);
      Alcotest.(check bool) "explain shows one loop per distinct key" true
        (Astring.String.is_infix
           ~affix:(Printf.sprintf "loops=%d " distinct_keys)
           text);
      Alcotest.(check bool) "explain shows Core.run's row count" true
        (Astring.String.is_infix
           ~affix:
             (Printf.sprintf "result: %d rows"
                (Relation.cardinality e.Core.result))
           text)

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "batched.properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_type_n; prop_type_a; prop_type_j; prop_type_ja; prop_deep ] );
    ( "batched.goldens",
      [
        Alcotest.test_case "duplicate and NULL keys dedup" `Quick
          test_dedup_counts;
        Alcotest.test_case "empty outer evaluates nothing" `Quick
          test_empty_outer;
        Alcotest.test_case "uncorrelated records no batches" `Quick
          test_uncorrelated_records_no_batches;
        Alcotest.test_case "correlation_keys" `Quick test_correlation_keys;
        Alcotest.test_case "static explain names keys only" `Quick
          test_static_explain;
        Alcotest.test_case "EXISTS and NOT EXISTS batch" `Quick
          test_exists_batching;
        Alcotest.test_case "free refs under shadowing" `Quick
          test_free_refs_shadowing;
        Alcotest.test_case "aggregate-argument correlation refuses" `Quick
          test_unbatchable_position_refuses;
        Alcotest.test_case "forced joins and engines agree" `Quick
          test_forced_joins_and_engines_agree;
        Alcotest.test_case "multi-row scalar subquery error parity" `Quick
          test_runtime_error_parity;
      ] );
    ( "batched.ladder",
      [
        Alcotest.test_case "rewrite refuses, batched answers" `Quick
          test_refused_shape_batched_answers;
        Alcotest.test_case "batched ≡ verified transformed program" `Quick
          test_batched_vs_verified_program;
        Alcotest.test_case "Core.run surfaces batch stats" `Quick
          test_core_run_surfaces_batches;
        Alcotest.test_case "Estimate prefers batched on duplicate skew"
          `Quick test_estimate_prefers_batched_on_skew;
        Alcotest.test_case "strategy_of_string round-trips" `Quick
          test_strategy_names;
      ] );
  ]

(* The semantic checker: typed plan validation (Plan_check over hand-built
   violating plans and over everything the planner emits) and the bounded
   counterexample search (Equiv_check certifies every guarded rewrite and
   refutes Kim's buggy NEST-JA on Q2 with a replayable one-row witness). *)

module Ast = Sql.Ast
module Value = Relalg.Value
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module Plan = Exec.Plan
module D = Analysis.Diagnostics
module PC = Analysis.Plan_check
module EQ = Analysis.Equiv_check
module F = Workload.Fixtures

let codes diags = List.map (fun (d : D.t) -> d.D.code) diags

let check_codes msg expected diags =
  Alcotest.(check (list string)) msg expected (codes diags)

let col ?table column = { Ast.table; column }

let span line col =
  {
    Ast.sp_start = { Ast.line; col };
    sp_end = { Ast.line; col = col + 1 };
  }

(* --- diagnostics: versioned JSON envelope and ordering ----------------- *)

let test_json_report_envelope () =
  let diags =
    [
      D.make "NQ110" (span 2 1) "unknown column X";
      D.make "NQ121" (span 1 1) "verified up to 2 rows";
    ]
  in
  (* the envelope survives the strict parser, not just the printer *)
  let report diags =
    match Json.parse (Json.to_string (D.json_report diags)) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let json = report diags in
  Alcotest.(check bool)
    "version field" true
    (Json.member "version" json = Some (Json.Int D.json_version));
  Alcotest.(check bool)
    "errors field" true
    (Json.member "errors" json = Some (Json.Bool true));
  (* the diagnostics array is sorted: NQ121 at 1:1 before NQ110 at 2:1 *)
  (match Json.member "diagnostics" json with
  | Some (Json.List [ first; _ ]) ->
      Alcotest.(check bool)
        "sorted payload" true
        (Json.member "code" first = Some (Json.Str "NQ121"))
  | _ -> Alcotest.fail "diagnostics is not a two-element list");
  Alcotest.(check bool)
    "empty list has no errors" true
    (Json.member "errors" (report []) = Some (Json.Bool false))

let test_diagnostic_sort_order () =
  let d1 = D.make "NQ111" (span 3 1) "later position" in
  let d2 = D.make "NQ121" (span 1 5) "info first position" in
  let d3 = D.make "NQ110" (span 1 5) "error same position" in
  check_codes "position, then severity, then code"
    [ "NQ110"; "NQ121"; "NQ111" ]
    (D.sort [ d1; d2; d3 ])

let test_analyze_all_sorted () =
  (* Two resolution failures; WHERE is traversed before SELECT internally,
     but diagnostics must come back in source order. *)
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q =
    match Sql.Parser.parse "SELECT NOPE1 FROM PARTS WHERE NOPE2 = 1" with
    | Ok q -> q
    | Error msg -> Alcotest.fail msg
  in
  let _, diags = Sql.Analyzer.analyze_all ~lookup:(Catalog.lookup catalog) q in
  Alcotest.(check int) "two diagnostics" 2 (List.length diags);
  let positions =
    List.map
      (fun (d : Sql.Analyzer.diag) ->
        (d.Sql.Analyzer.dspan.Ast.sp_start.Ast.line,
         d.Sql.Analyzer.dspan.Ast.sp_start.Ast.col))
      diags
  in
  Alcotest.(check bool)
    "nondecreasing source positions" true
    (List.sort compare positions = positions)

(* --- plan validation: hand-built violating plans ----------------------- *)

let count_bug_catalog () = F.parts_supply_catalog F.Count_bug

let plan_diags plan = PC.check_catalog (count_bug_catalog ()) plan

let test_plan_unknown_table () =
  check_codes "NQ110 unknown table" [ "NQ110" ]
    (PC.check_catalog (count_bug_catalog ()) (Plan.Scan "NOPE"))

let test_plan_unknown_column () =
  let plan =
    Plan.Filter
      ( [ Ast.Cmp (Ast.Col (col "NOCOL"), Ast.Eq, Ast.Lit (Value.Int 1)) ],
        Plan.Scan "PARTS" )
  in
  check_codes "NQ110 unresolved column" [ "NQ110" ] (plan_diags plan)

let test_plan_type_mismatch () =
  (* PNUM is int, SHIPDATE is date: the join condition cannot type. *)
  let plan =
    Plan.Join
      {
        method_ = Plan.Nested_loop;
        kind = Plan.Inner;
        cond = [ (col ~table:"PARTS" "PNUM", Ast.Eq,
                  col ~table:"SUPPLY" "SHIPDATE") ];
        residual = [];
        left = Plan.Scan "PARTS";
        right = Plan.Scan "SUPPLY";
      }
  in
  check_codes "NQ111 join type mismatch" [ "NQ111" ] (plan_diags plan)

let outer_join_parts_supply () =
  Plan.Join
    {
      method_ = Plan.Nested_loop;
      kind = Plan.Left_outer;
      cond = [ (col ~table:"PARTS" "PNUM", Ast.Eq,
                col ~table:"SUPPLY" "PNUM") ];
      residual = [];
      left = Plan.Scan "PARTS";
      right = Plan.Scan "SUPPLY";
    }

let test_plan_count_star_over_outer_join () =
  (* The §5.2.1 bug at the plan level: a star-COUNT above the preserving
     join counts the padding row, so empty groups report 1. *)
  let plan =
    Plan.Hash_group_agg
      {
        group_by = [ col ~table:"PARTS" "PNUM" ];
        aggs = [ { Plan.fn = Ast.Count_star; out_name = "CNT" } ];
        input = outer_join_parts_supply ();
      }
  in
  check_codes "NQ112 COUNT(*) above preserving join" [ "NQ112" ]
    (plan_diags plan)

let test_plan_count_preserved_column () =
  (* COUNT over a left-side column: padding never makes it NULL. *)
  let plan =
    Plan.Hash_group_agg
      {
        group_by = [ col ~table:"PARTS" "PNUM" ];
        aggs =
          [ { Plan.fn = Ast.Count (col ~table:"PARTS" "QOH");
              out_name = "CNT" } ];
        input = outer_join_parts_supply ();
      }
  in
  check_codes "NQ112 COUNT of non-nullable column" [ "NQ112" ]
    (plan_diags plan)

let test_plan_count_padded_column_ok () =
  (* The correct NEST-JA2 shape: COUNT over a padded inner column. *)
  let plan =
    Plan.Hash_group_agg
      {
        group_by = [ col ~table:"PARTS" "PNUM" ];
        aggs =
          [ { Plan.fn = Ast.Count (col ~table:"SUPPLY" "SHIPDATE");
              out_name = "CNT" } ];
        input = outer_join_parts_supply ();
      }
  in
  check_codes "COUNT over padded column is clean" [] (plan_diags plan)

let test_plan_group_scoping () =
  let plan =
    Plan.Hash_group_agg
      {
        group_by = [ col "NOPE" ];
        aggs = [ { Plan.fn = Ast.Count_star; out_name = "CNT" } ];
        input = Plan.Scan "PARTS";
      }
  in
  check_codes "NQ113 unresolved group key" [ "NQ113" ] (plan_diags plan)

let test_plan_merge_sort_contract () =
  (* Merge join whose left input is provably sorted on the wrong column. *)
  let plan =
    Plan.Join
      {
        method_ = Plan.Sort_merge;
        kind = Plan.Inner;
        cond = [ (col ~table:"PARTS" "PNUM", Ast.Eq,
                  col ~table:"SUPPLY" "PNUM") ];
        residual = [];
        left = Plan.Sort ([ col ~table:"PARTS" "QOH" ], Plan.Scan "PARTS");
        right = Plan.Sort ([ col ~table:"SUPPLY" "PNUM" ],
                           Plan.Scan "SUPPLY");
      }
  in
  check_codes "NQ114 merge join input sorted on wrong columns" [ "NQ114" ]
    (plan_diags plan)

let test_plan_hash_join_without_equality () =
  let plan =
    Plan.Join
      {
        method_ = Plan.Hash;
        kind = Plan.Inner;
        cond = [ (col ~table:"PARTS" "PNUM", Ast.Lt,
                  col ~table:"SUPPLY" "PNUM") ];
        residual = [];
        left = Plan.Scan "PARTS";
        right = Plan.Scan "SUPPLY";
      }
  in
  check_codes "NQ115 hash join without equality" [ "NQ115" ]
    (plan_diags plan)

(* --- plan validation: everything the planner emits checks clean -------- *)

let test_planner_output_checks_clean () =
  let db = Fixtures.count_bug_db () in
  List.iter
    (fun text ->
      match Core.parse db text with
      | Error msg -> Alcotest.fail msg
      | Ok _ -> (
          match Core.transform db text with
          | Error _ -> () (* refusals have no plans to check *)
          | Ok program ->
              check_codes
                (Printf.sprintf "planner output clean: %s" text)
                []
                (Optimizer.Planner.check_program
                   (Core.catalog db) program)))
    [
      Fixtures.count_bug_query;
      Fixtures.max_quan_query;
      F.query_q2_count_star;
      "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY)";
      "SELECT PNUM FROM PARTS WHERE QOH < 10 ORDER BY PNUM";
    ]

(* --- bounded counterexample search ------------------------------------- *)

(* The acceptance case: Kim's unguarded NEST-JA on Q2 must be refuted at
   bound 2 with a minimal witness the oracle replays. *)
let test_equiv_refutes_buggy_nest_ja () =
  let catalog = count_bug_catalog () in
  let q = F.parse_analyzed catalog F.query_q2 in
  let pred =
    match q.Ast.where with [ p ] -> p | _ -> Alcotest.fail "shape"
  in
  let temp, rewritten = Optimizer.Nest_ja.transform q pred ~temp_name:"TEMPP" in
  let temps = [ (temp.Optimizer.Program.name, temp.Optimizer.Program.def) ] in
  match
    EQ.check ~lookup:(Catalog.lookup catalog) ~temps ~main:rewritten q
  with
  | EQ.Equivalent _ -> Alcotest.fail "buggy NEST-JA certified equivalent"
  | EQ.Inconclusive why -> Alcotest.fail ("inconclusive: " ^ why)
  | EQ.Not_equivalent w ->
      (* Minimal witness: one PARTS row with QOH = 0, SUPPLY empty. *)
      let total =
        List.fold_left
          (fun n (_, rel) -> n + List.length (Relation.rows rel))
          0 w.EQ.w_tables
      in
      Alcotest.(check int) "one-row witness" 1 total;
      Alcotest.(check int) "original returns the lost tuple" 1
        (List.length (Relation.rows w.EQ.w_expected));
      Alcotest.(check int) "buggy rewrite loses it" 0
        (List.length (Relation.rows w.EQ.w_got));
      (* The rendered repro replays through the oracle reference and
         reproduces the expected side. *)
      let repro = EQ.witness_to_repro ~original:q w in
      let case = Oracle.Repro.of_string repro in
      (match Oracle.Matrix.run_reference case with
      | Error msg -> Alcotest.fail ("oracle replay rejected witness: " ^ msg)
      | Ok reference ->
          Alcotest.(check bool)
            "replay reproduces the witness expectation" true
            (Relation.equal_bag reference w.EQ.w_expected))

let test_equiv_certifies_guarded_q2 () =
  let db = Fixtures.count_bug_db () in
  match Core.parse db Fixtures.count_bug_query with
  | Error msg -> Alcotest.fail msg
  | Ok q -> (
      let r = Core.check_query db q in
      Alcotest.(check bool) "no refusal" true (r.Core.ck_refused = None);
      Alcotest.(check bool) "no error diagnostics" false
        (D.has_errors r.Core.ck_diags);
      Alcotest.(check bool) "certificate present" true
        (r.Core.ck_certificate <> None);
      match r.Core.ck_verdict with
      | Some (EQ.Equivalent { bound = 2; databases = 3025 }) -> ()
      | Some (EQ.Equivalent { bound; databases }) ->
          Alcotest.fail
            (Printf.sprintf "unexpected certificate: bound %d, %d databases"
               bound databases)
      | _ -> Alcotest.fail "guarded NEST-JA2 rewrite was not certified")

let test_equiv_certifies_neq_guard () =
  (* The §5.3 shape: guarded rewrite joins the temp under the original
     range operator; the search must agree at bound 2. *)
  let db = Fixtures.count_bug_db () in
  match Core.parse db Fixtures.max_quan_query with
  | Error msg -> Alcotest.fail msg
  | Ok q -> (
      let r = Core.check_query db q in
      match r.Core.ck_verdict with
      | Some (EQ.Equivalent _) -> ()
      | Some (EQ.Not_equivalent _) ->
          Alcotest.fail "guarded rewrite refuted"
      | Some (EQ.Inconclusive why) -> Alcotest.fail ("inconclusive: " ^ why)
      | None -> Alcotest.fail "no verdict")

let test_check_query_refusal () =
  let db = Fixtures.count_bug_db () in
  match
    Core.parse db
      "SELECT PNUM FROM PARTS WHERE PNUM = ALL (SELECT PNUM FROM SUPPLY)"
  with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
      let r = Core.check_query db q in
      Alcotest.(check bool) "refused" true (r.Core.ck_refused <> None);
      Alcotest.(check bool) "no verdict on refusal" true
        (r.Core.ck_verdict = None)

let test_check_source_reports () =
  let db = Fixtures.count_bug_db () in
  match
    Core.check_source db
      (Fixtures.count_bug_query ^ "; SELECT PNUM FROM PARTS WHERE QOH < 10")
  with
  | Error msg -> Alcotest.fail msg
  | Ok reports ->
      Alcotest.(check int) "one report per query" 2 (List.length reports);
      List.iter
        (fun (r : Core.check_report) ->
          Alcotest.(check bool) "certified" true
            (match r.Core.ck_verdict with
            | Some (EQ.Equivalent _) -> true
            | _ -> false))
        reports

(* --- the matrix under ~check: all 22 cells type-check ------------------ *)

let test_matrix_check_clean () =
  let case =
    {
      Oracle.Repro.tables =
        [ ("PARTS", F.kiessling_parts); ("SUPPLY", F.kiessling_supply) ];
      sql = Fixtures.count_bug_query;
    }
  in
  let result = Oracle.Matrix.run_case ~check:true case in
  Alcotest.(check (list string))
    "no mismatches or plan-check failures" []
    (Oracle.Matrix.describe result);
  Alcotest.(check int) "all 22 cells ran" 22
    (List.length result.Oracle.Matrix.outcomes)

let suites =
  [
    ( "analysis-checker",
      [
        Alcotest.test_case "json report envelope" `Quick
          test_json_report_envelope;
        Alcotest.test_case "diagnostic sort order" `Quick
          test_diagnostic_sort_order;
        Alcotest.test_case "analyze_all sorted" `Quick test_analyze_all_sorted;
        Alcotest.test_case "plan: unknown table" `Quick test_plan_unknown_table;
        Alcotest.test_case "plan: unknown column" `Quick
          test_plan_unknown_column;
        Alcotest.test_case "plan: type mismatch" `Quick test_plan_type_mismatch;
        Alcotest.test_case "plan: COUNT(*) over outer join" `Quick
          test_plan_count_star_over_outer_join;
        Alcotest.test_case "plan: COUNT of preserved column" `Quick
          test_plan_count_preserved_column;
        Alcotest.test_case "plan: COUNT of padded column ok" `Quick
          test_plan_count_padded_column_ok;
        Alcotest.test_case "plan: group scoping" `Quick test_plan_group_scoping;
        Alcotest.test_case "plan: merge sort contract" `Quick
          test_plan_merge_sort_contract;
        Alcotest.test_case "plan: hash join equality contract" `Quick
          test_plan_hash_join_without_equality;
        Alcotest.test_case "planner output checks clean" `Quick
          test_planner_output_checks_clean;
        Alcotest.test_case "equiv: refutes buggy NEST-JA on Q2" `Quick
          test_equiv_refutes_buggy_nest_ja;
        Alcotest.test_case "equiv: certifies guarded Q2" `Quick
          test_equiv_certifies_guarded_q2;
        Alcotest.test_case "equiv: certifies range guard" `Quick
          test_equiv_certifies_neq_guard;
        Alcotest.test_case "check_query: refusal" `Quick
          test_check_query_refusal;
        Alcotest.test_case "check_source: report per query" `Quick
          test_check_source_reports;
        Alcotest.test_case "matrix ~check: 22 cells clean" `Quick
          test_matrix_check_clean;
      ] );
  ]

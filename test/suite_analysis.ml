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

(* A plan the executor cannot compile draws exactly one diagnostic, coded
   by the compiler's verdict and carrying its message; [Plan.run] raises
   that verdict. *)
let check_compile_failure msg code plan =
  let catalog = count_bug_catalog () in
  match Plan.check catalog plan with
  | Ok () -> Alcotest.failf "%s: the plan compiles" msg
  | Error e ->
      Alcotest.(check (list (pair string string)))
        msg
        [ (code, Plan.error_message e) ]
        (List.map
           (fun (d : D.t) -> (d.D.code, d.D.message))
           (PC.check_catalog catalog plan));
      Alcotest.(check bool)
        (msg ^ ": run raises the same error") true
        (match Plan.run catalog plan with
        | _ -> false
        | exception Plan.Plan_error e' -> e' = e)

let test_plan_unknown_table () =
  check_compile_failure "NQ110 unknown table" "NQ110" (Plan.Scan "NOPE")

let test_plan_unknown_column () =
  let plan =
    Plan.Filter
      ( [ Ast.Cmp (Ast.Col (col "NOCOL"), Ast.Eq, Ast.Lit (Value.Int 1)) ],
        Plan.Scan "PARTS" )
  in
  check_compile_failure "NQ110 unresolved column" "NQ110" plan

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
  check_compile_failure "NQ110 unresolved group key" "NQ110" plan

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
  check_compile_failure "NQ115 hash join without equality" "NQ115" plan

(* The contract compilation states beyond resolution: a value subquery
   yields one column, a nested predicate carries its subplan, a grouped
   node names its aggregates apart, an index scan has its B-tree.  Each
   fails before any operator opens, so checking reads no page. *)
let test_plan_compile_contract () =
  let parts_qoh = Ast.Col (col ~table:"PARTS" "QOH") in
  let supply = Plan.Scan "SUPPLY" in
  let sub = { Ast.distinct = false; select = []; from = []; where = [];
              group_by = []; order_by = []; span = Ast.no_span } in
  let apply pred sp =
    Plan.Apply { mode = Plan.Per_row; preds = [ (pred, sp) ];
                 outer = Plan.Scan "PARTS" }
  in
  check_compile_failure "multi-column value subquery" "NQ110"
    (apply (Ast.In_subq (parts_qoh, sub)) (Some { Plan.keys = []; inner = supply }));
  check_compile_failure "nested predicate without its subplan" "NQ110"
    (apply (Ast.Exists sub) None);
  check_compile_failure "aggregates named alike" "NQ110"
    (Plan.Hash_group_agg
       {
         group_by = [];
         aggs =
           [ { Plan.fn = Ast.Count_star; out_name = "N" };
             { Plan.fn = Ast.Max (col "QUAN"); out_name = "N" } ];
         input = supply;
       });
  let probe = Some (Ast.Lit (Value.Int 3), true) in
  check_compile_failure "index scan without its B-tree" "NQ115"
    (Plan.Index_scan
       { table = "SUPPLY"; alias = "SUPPLY"; column = "PNUM"; lo = probe;
         hi = probe });
  let catalog = count_bug_catalog () in
  let pager = Catalog.pager catalog in
  let before = Storage.Pager.snapshot pager in
  Alcotest.(check bool) "a sort under a nested-loop join compiles" true
    (Plan.check catalog
       (Plan.Join
          { method_ = Plan.Nested_loop; kind = Plan.Inner; cond = [];
            residual = []; left = supply;
            right = Plan.Sort ([ col "QOH" ], Plan.Scan "PARTS") })
    = Ok ());
  Alcotest.(check int) "checking requests no page" 0
    (Storage.Pager.diff_since pager before).Storage.Pager.logical_reads

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
                (List.concat_map
                   (fun (_, _, diags) -> diags)
                   (Optimizer.Planner.check_segments (Core.catalog db)
                      (Optimizer.Planner.Program program)))))
    [
      Fixtures.count_bug_query;
      Fixtures.max_quan_query;
      F.query_q2_count_star;
      "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY)";
      "SELECT PNUM FROM PARTS WHERE QOH < 10 ORDER BY PNUM";
    ]

(* --- check type-checks the plans that run ------------------------------- *)

(* The plans a run of [program] lowers in [mode], rendered, each temp
   lowered against the catalog as the earlier temps left it.  A temp run
   first is run and registered, or, with [~empty], registered with no rows.
   Under Hybrid a temp one FROM item reads runs nothing: its reader streams
   its plan, planned against its estimate, or, with [~empty], against an
   estimate of no rows. *)
let run_plans ?(empty = false) ~mode catalog (program : Optimizer.Program.t) =
  let module P = Optimizer.Planner in
  let label l = P.mode_name mode ^ " transformed " ^ l in
  let inlined = ref [] in
  let temps =
    List.filter_map
      (fun ({ Optimizer.Program.name; def } : Optimizer.Program.temp) ->
        let ({ P.plan; out_sorted } as lowered) =
          P.lower ~mode ~inlined:!inlined catalog def
        in
        let schema (cols : Relalg.Schema.t) =
          Relalg.Schema.of_columns ~rel:name
            (List.map2
               (fun n (c : Relalg.Schema.column) -> (n, c.ty))
               (Optimizer.Program.output_column_names def)
               (Relalg.Schema.columns cols))
        in
        match (mode, Optimizer.Program.readers program name) with
        | P.Hybrid, [ _ ] ->
            (if not empty then P.register_estimate catalog name def lowered
             else
               let schema = schema (Exec.Plan.output_schema catalog plan) in
               Catalog.register_estimate ?sorted_on:out_sorted catalog name
                 schema
                 (Storage.Stats.of_relation (Relation.make schema []))
                 ~pages:0);
            inlined := (name, plan) :: !inlined;
            None
        | _ ->
            let result = P.run_segments catalog (P.Plan plan) in
            Catalog.register_relation ?sorted_on:out_sorted catalog name
              (Relation.make
                 (schema (Relation.schema result))
                 (if empty then [] else Relation.rows result));
            Some (label ("temp " ^ name), Exec.Explain.render plan))
      program.Optimizer.Program.temps
  in
  let main =
    (P.lower ~mode ~inlined:!inlined catalog program.Optimizer.Program.main)
      .P.plan
  in
  P.drop_temps catalog program;
  temps @ [ (label "main", Exec.Explain.render main) ]

(* [nestsql check] type-checks exactly the plans a run lowers: nested
   iteration's, then batched bindings' and the program's in each mode.  On
   Kiessling's data the Paper1987 temps are run and registered, and each
   Hybrid temp is read once, so streamed into one main plan.  Against empty
   temps, as the checker once registered them, the same segments lower to
   other plans, plans that never run: the Hybrid main joins the streamed
   temps by nested loops where the run hashes them. *)
let test_check_plans_are_run_plans () =
  let db () = Fixtures.count_bug_db () in
  let checked =
    let db = db () in
    (Core.check_query db
       (Result.get_ok (Core.parse db Fixtures.count_bug_query)))
      .Core.ck_plans
  in
  let db = db () in
  let catalog = Core.catalog db in
  let q = Result.get_ok (Core.parse db Fixtures.count_bug_query) in
  let program = Result.get_ok (Core.transform db Fixtures.count_bug_query) in
  let modes = [ Optimizer.Planner.Paper1987; Optimizer.Planner.Hybrid ] in
  let run_plans ?empty () =
    ( "nested_iteration main",
      Exec.Explain.render (Exec.Sysr_iteration.lower catalog q) )
    :: List.concat_map
         (fun mode ->
           ( Optimizer.Planner.mode_name mode ^ " batched main",
             Exec.Explain.render
               (Optimizer.Batched_nest.lower ~mode catalog q) )
           :: run_plans ?empty ~mode catalog program)
         modes
  in
  let expected = run_plans () in
  Alcotest.(check (list (pair string string)))
    "checked plans = run plans" expected
    (List.map (fun (label, plan) -> (label, Exec.Explain.render plan)) checked);
  Alcotest.(check (list string))
    "Hybrid runs one main plan" [ "hybrid transformed main" ]
    (List.filter
       (fun l -> Astring.String.is_prefix ~affix:"hybrid transformed" l)
       (List.map fst expected));
  let empty = run_plans ~empty:true () in
  Alcotest.(check (list string))
    "empty temps lower the same segments" (List.map fst expected)
    (List.map fst empty);
  Alcotest.(check bool) "empty temps lower the Hybrid main differently" true
    (List.assoc "hybrid transformed main" empty
    <> List.assoc "hybrid transformed main" expected)

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
      let repro =
        match EQ.witness_to_repro ~original:q w with
        | Ok text -> text
        | Error why -> Alcotest.fail why
      in
      let case = Oracle.Repro.of_string repro in
      (match Oracle.Matrix.run_reference case with
      | Error msg -> Alcotest.fail ("oracle replay rejected witness: " ^ msg)
      | Ok reference ->
          Alcotest.(check bool)
            "replay reproduces the witness expectation" true
            (Relation.equal_bag reference w.EQ.w_expected))

(* A witness holding a string the repro dialect cannot write (a comma
   splits the cell on replay) gives no repro, and says why.  Kim's NEST-JA
   loses the S row with STATUS 0 and no shipments; the row must carry the
   literal's CITY to be selected. *)
let test_equiv_unwritable_witness () =
  let catalog = F.kim_catalog () in
  let q =
    F.parse_analyzed catalog
      "SELECT SNO FROM S WHERE CITY = 'Paris, TX' AND STATUS = (SELECT \
       COUNT(QTY) FROM SP WHERE SP.SNO = S.SNO)"
  in
  let pred =
    List.find (function Ast.Cmp_subq _ -> true | _ -> false) q.Ast.where
  in
  let temp, rewritten = Optimizer.Nest_ja.transform q pred ~temp_name:"TEMPS" in
  let temps = [ (temp.Optimizer.Program.name, temp.Optimizer.Program.def) ] in
  match
    EQ.check ~lookup:(Catalog.lookup catalog) ~temps ~main:rewritten q
  with
  | EQ.Equivalent _ -> Alcotest.fail "buggy NEST-JA certified equivalent"
  | EQ.Inconclusive why -> Alcotest.fail ("inconclusive: " ^ why)
  | EQ.Not_equivalent w -> (
      Alcotest.(check bool) "the witness holds the comma string" true
        (List.exists
           (fun (_, rel) ->
             List.exists
               (fun row ->
                 List.mem (Value.Str "Paris, TX") (Relalg.Row.to_list row))
               (Relation.rows rel))
           w.EQ.w_tables);
      match EQ.witness_to_repro ~original:q w with
      | Ok text -> Alcotest.failf "wrote a repro that does not replay:\n%s" text
      | Error why ->
          Alcotest.(check bool) ("reason names the value: " ^ why) true
            (Astring.String.is_infix ~affix:"\"Paris, TX\" contains a comma"
               why))

let test_equiv_certifies_guarded_q2 () =
  let db = Fixtures.count_bug_db () in
  match Core.parse db Fixtures.count_bug_query with
  | Error msg -> Alcotest.fail msg
  | Ok q -> (
      let r = Core.check_query db q in
      Alcotest.(check bool) "no refusal" true (r.Core.ck_refused = []);
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
      Alcotest.(check bool) "refused" true
        (List.mem_assoc Core.Via_transformed r.Core.ck_refused);
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

(* --- a refused rewrite still has its plans checked --------------------- *)

(* [>= ALL] over a column holding a NULL: NEST-G refuses (the COUNT form
   needs both sides non-NULL), yet nested iteration and batched bindings
   run it, so [check] type-checks their plans. *)
let test_check_refused_rewrite_checks_plans () =
  let db = Core.create_db () in
  Core.define_table db "PARTS"
    [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
    [ [ Value.Int 3; Value.Int 6 ]; [ Value.Int 10; Value.Int 1 ] ];
  Core.define_table db "SUPPLY"
    [ ("PNUM", Value.Tint); ("QUAN", Value.Tint) ]
    [ [ Value.Int 3; Value.Int 4 ]; [ Value.Int 10; Value.Null ] ];
  let q =
    Result.get_ok
      (Core.parse db
         "SELECT PNUM FROM PARTS WHERE QOH >= ALL (SELECT QUAN FROM SUPPLY \
          WHERE SUPPLY.PNUM = PARTS.PNUM)")
  in
  let r = Core.check_query db q in
  Alcotest.(check (list string))
    "the rewrite refused"
    [ Core.via_name Core.Via_transformed ]
    (List.map (fun (via, _) -> Core.via_name via) r.Core.ck_refused);
  Alcotest.(check (list string))
    "nested and batched plans checked"
    [ "nested_iteration main"; "paper1987 batched main"; "hybrid batched main" ]
    (List.map fst r.Core.ck_plans);
  check_codes "clean" [] r.Core.ck_diags;
  Alcotest.(check bool) "no verdict without a rewrite" true
    (r.Core.ck_verdict = None);
  Alcotest.(check bool) "--json keeps the refusal" true
    (match Core.check_json [ r ] with
    | Json.Obj fields -> (
        match List.assoc "queries" fields with
        | Json.List [ Json.Obj query ] -> List.mem_assoc "refused" query
        | _ -> false)
    | _ -> false)

(* --- the matrix's 22 cells: every plan they run type-checks ------------ *)

(* The cells run on Kiessling's data without a difference, and every plan
   they run checks clean: the forced-join rewrite and batched cells in both
   modes through [Planner.check_segments ~force], and the nested, Auto and
   indexed cells through [Core.check_query] on the unindexed and the
   fully indexed database. *)
let test_matrix_plans_check_clean () =
  let module P = Optimizer.Planner in
  let case =
    {
      Oracle.Repro.tables =
        [ ("PARTS", F.kiessling_parts); ("SUPPLY", F.kiessling_supply) ];
      sql = Fixtures.count_bug_query;
    }
  in
  let result = Oracle.Matrix.run_case case in
  Alcotest.(check (list string))
    "no mismatches or failures" []
    (Oracle.Matrix.describe result);
  Alcotest.(check int) "all 22 cells ran" 22
    (List.length result.Oracle.Matrix.outcomes);
  let forced =
    List.concat_map
      (fun mode ->
        List.concat_map
          (fun force ->
            let db = Oracle.Repro.build_db case in
            let catalog = Core.catalog db in
            let q = Result.get_ok (Core.parse db case.sql) in
            let batched =
              P.check_segments ~force ~mode catalog
                (P.Plan (Optimizer.Batched_nest.lower ~force ~mode catalog q))
            in
            if force = P.Auto then batched
            else
              P.check_segments ~force ~mode catalog
                (P.Program (Result.get_ok (Core.transform db case.sql)))
              @ batched)
          [ P.Auto; P.Force_nl; P.Force_merge; P.Force_hash ])
      [ P.Paper1987; P.Hybrid ]
  in
  (* 4 batched in each mode, and 3 forced rewrites: 3 temps + main under
     Paper1987; main alone under Hybrid, whose temps are each read once and
     so pipelined into it *)
  Alcotest.(check int) "forced plans" 23 (List.length forced);
  check_codes "forced plans clean" []
    (List.concat_map (fun (_, _, diags) -> diags) forced);
  List.iter
    (fun indexed ->
      let db = Oracle.Repro.build_db case in
      if indexed then
        List.iter
          (fun (table, rel) ->
            List.iter
              (fun (c : Relalg.Schema.column) ->
                Core.create_index db table ~column:c.name)
              (Relalg.Schema.columns (Relation.schema rel)))
          case.tables;
      let r =
        Core.check_query db (Result.get_ok (Core.parse db case.sql))
      in
      Alcotest.(check bool) "no rung refused" true (r.Core.ck_refused = []);
      (* nested; batched in each mode; the program's 3 temps + main
         under Paper1987 and its main alone under Hybrid *)
      Alcotest.(check int) "nested, batched and program plans" 8
        (List.length r.Core.ck_plans);
      Alcotest.(check bool) "checked clean" false
        (D.has_errors r.Core.ck_diags))
    [ false; true ]

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
        Alcotest.test_case "plan: hash join equality contract" `Quick
          test_plan_hash_join_without_equality;
        Alcotest.test_case "plan: compile contract, one diagnostic" `Quick
          test_plan_compile_contract;
        Alcotest.test_case "planner output checks clean" `Quick
          test_planner_output_checks_clean;
        Alcotest.test_case "equiv: refutes buggy NEST-JA on Q2" `Quick
          test_equiv_refutes_buggy_nest_ja;
        Alcotest.test_case "equiv: no repro for an unwritable witness" `Quick
          test_equiv_unwritable_witness;
        Alcotest.test_case "equiv: certifies guarded Q2" `Quick
          test_equiv_certifies_guarded_q2;
        Alcotest.test_case "equiv: certifies range guard" `Quick
          test_equiv_certifies_neq_guard;
        Alcotest.test_case "check_query: refusal" `Quick
          test_check_query_refusal;
        Alcotest.test_case "check_source: report per query" `Quick
          test_check_source_reports;
        Alcotest.test_case "matrix: every cell's plans check clean" `Quick
          test_matrix_plans_check_clean;
        Alcotest.test_case "check type-checks the plans that run" `Quick
          test_check_plans_are_run_plans;
        Alcotest.test_case "check: refused rewrite's plans checked" `Quick
          test_check_refused_rewrite_checks_plans;
      ] );
  ]

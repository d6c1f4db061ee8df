(* The analysis library: diagnostics, the lint pass (golden diagnostics
   for the paper's worked examples, its own correlation walk) and the
   rewrite verifier (passes on every NEST-G/NEST-JA2 program, fails on
   Kim's buggy NEST-JA output and on deliberately mutated programs). *)

module Ast = Sql.Ast
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module F = Workload.Fixtures
module G = Workload.Gen
module D = Analysis.Diagnostics
module Lint = Analysis.Lint

let classify sub =
  Optimizer.Classify.name (Optimizer.Classify.classify_block sub)

let column_stats catalog rel col =
  match Catalog.lookup catalog rel with
  | None -> None
  | Some schema -> (
      match Relalg.Schema.find_opt schema col with
      | Some i ->
          let cs = Storage.Stats.column (Catalog.stats catalog rel) i in
          Some (cs.Storage.Stats.distinct, Catalog.tuples catalog rel)
      | None -> None
      | exception Relalg.Schema.Ambiguous _ -> None)

(* Lint a source text against a fixture catalog, with the optimizer as
   classification oracle and real catalog statistics. *)
let lint catalog text =
  Lint.lint_source ~classify
    ~column_stats:(column_stats catalog)
    ~lookup:(Catalog.lookup catalog) text

let codes diags = List.map (fun (d : D.t) -> d.D.code) diags

let check_codes msg expected diags =
  Alcotest.(check (list string)) msg expected (codes diags)

(* --- golden diagnostics on the paper's worked examples ------------------ *)

let test_kim_examples_clean () =
  let kim = F.kim_catalog () in
  List.iteri
    (fun i text ->
      check_codes (Printf.sprintf "example %d clean" (i + 1)) []
        (lint kim text))
    [ F.example1; F.example2; F.example3; F.example4 ];
  (* Example 5 is type-JA on P.CITY, which holds duplicates in the fixture:
     the sec.-5.4 susceptibility warning fires (and nothing else). *)
  check_codes "example 5 = NQ003" [ "NQ003" ] (lint kim F.example5)

let test_count_bug_query () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let diags = lint catalog F.query_q2 in
  check_codes "Q2 = NQ001" [ "NQ001" ] diags;
  let d = List.hd diags in
  Alcotest.(check bool) "NQ001 span known" true (Ast.span_known d.D.span);
  (* The span is the inner block's: it starts at the subquery's SELECT. *)
  let expected_col =
    match Astring.String.find_sub ~sub:"(SELECT" F.query_q2 with
    | Some i -> i + 2 (* 1-based, one past the paren *)
    | None -> Alcotest.fail "fixture changed"
  in
  Alcotest.(check int) "NQ001 span column" expected_col
    d.D.span.Ast.sp_start.Ast.col;
  Alcotest.(check string) "NQ001 severity" "warning"
    (D.severity_name d.D.severity)

let test_neq_query () =
  let catalog = F.parts_supply_catalog F.Neq_bug in
  let diags = lint catalog F.query_q5 in
  check_codes "Q5 = NQ002" [ "NQ002" ] diags;
  Alcotest.(check bool) "NQ002 span known" true
    (Ast.span_known (List.hd diags).D.span)

let test_duplicates_query () =
  let catalog = F.parts_supply_catalog F.Duplicates in
  (* dup_parts: 5 rows, 3 distinct PNUM — both the COUNT-bug and the
     duplicate-join-column warnings apply. *)
  check_codes "duplicates Q2 = NQ001+NQ003" [ "NQ001"; "NQ003" ]
    (lint catalog F.query_q2);
  (* Same query on the duplicate-free Kiessling data: no NQ003. *)
  check_codes "count-bug Q2 has no NQ003" [ "NQ001" ]
    (lint (F.parts_supply_catalog F.Count_bug) F.query_q2)

let test_ja2_rewrites_lint_clean () =
  (* The NEST-JA2 output of the three bug queries is flat — linting each
     definition and the main query yields nothing (the warnings are
     properties of the *nested* original). *)
  List.iter
    (fun (variant, text) ->
      let catalog = F.parts_supply_catalog variant in
      let q = F.parse_analyzed catalog text in
      let program =
        Optimizer.Nest_g.transform
          ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
          q
      in
      (* Register temp schemas so linting later defs resolves temp refs. *)
      let temp_schemas = ref [] in
      let lookup name =
        match List.assoc_opt name !temp_schemas with
        | Some s -> Some s
        | None -> Catalog.lookup catalog name
      in
      List.iter
        (fun ({ Optimizer.Program.name; def } : Optimizer.Program.temp) ->
          check_codes ("temp " ^ name ^ " lints clean") []
            (Lint.lint ~classify def);
          temp_schemas :=
            (name, Sql.Analyzer.output_schema ~lookup ~rel:name def)
            :: !temp_schemas)
        program.Optimizer.Program.temps;
      check_codes "main lints clean" []
        (Lint.lint ~classify program.Optimizer.Program.main))
    [
      (F.Count_bug, F.query_q2);
      (F.Neq_bug, F.query_q5);
      (F.Duplicates, F.query_q2);
    ]

(* --- hygiene and applicability checks ----------------------------------- *)

let test_unused_alias_and_constant_false () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  check_codes "unused alias + constant false" [ "NQ004"; "NQ005" ]
    (lint catalog "SELECT PARTS.PNUM FROM PARTS, SUPPLY WHERE 1 = 2");
  check_codes "self-comparison never true" [ "NQ005" ]
    (lint catalog "SELECT PNUM FROM PARTS WHERE PNUM != PNUM");
  (* An alias used only through a correlation does not count as unused. *)
  check_codes "correlated-into alias is used" []
    (lint catalog
       "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
        SUPPLY.PNUM = PARTS.PNUM)")

let test_no_rewrite_available () =
  let kim = F.kim_catalog () in
  let eq_all =
    lint kim "SELECT SNO FROM S WHERE SNO = ALL (SELECT SNO FROM SP)"
  in
  check_codes "= ALL is NQ007" [ "NQ007" ] eq_all;
  Alcotest.(check string) "NQ007 is info" "info"
    (D.severity_name (List.hd eq_all).D.severity);
  check_codes "NOT IN is NQ007" [ "NQ007" ]
    (lint kim "SELECT SNO FROM S WHERE SNO NOT IN (SELECT SNO FROM SP)")

let test_multiplicity_sensitive_merge () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  (* A correlated non-aggregate subquery below COUNT: NEST-N-J's merge
     would change the multiplicity, so the planner refuses (Safe) and lint
     warns. *)
  check_codes "NQ008 under COUNT" [ "NQ008" ]
    (lint catalog
       "SELECT COUNT(PNUM) FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY \
        WHERE SUPPLY.PNUM = PARTS.PNUM)");
  (* MAX is duplicate-insensitive: no warning. *)
  check_codes "no NQ008 under MAX" []
    (lint catalog
       "SELECT MAX(PNUM) FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY \
        WHERE SUPPLY.PNUM = PARTS.PNUM)")

let test_classification_cross_check () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q = F.parse_analyzed catalog F.query_q2 in
  (* A lying oracle must be caught (error severity). *)
  let diags = Lint.lint ~classify:(fun _ -> "type-N") q in
  Alcotest.(check bool) "NQ006 fires" true
    (List.mem "NQ006" (codes diags));
  Alcotest.(check bool) "NQ006 is an error" true (D.has_errors diags);
  (* The real oracle agrees everywhere in the fixture corpus. *)
  List.iter
    (fun text ->
      let q = F.parse_analyzed catalog text in
      Alcotest.(check bool) ("oracle agrees: " ^ text) false
        (List.mem "NQ006" (codes (Lint.lint ~classify q))))
    [ F.query_q2; F.query_q5; F.query_q2_count_star ]

(* --- parse / analyzer diagnostics --------------------------------------- *)

let test_parse_error_diag () =
  let catalog = F.kim_catalog () in
  let diags = lint catalog "SELEC SNO FROM S" in
  check_codes "NQ100" [ "NQ100" ] diags;
  Alcotest.(check bool) "parse errors are errors" true (D.has_errors diags)

let test_analyzer_collects_all () =
  let catalog = F.kim_catalog () in
  (* Three independent resolution errors in one query: all reported. *)
  let diags =
    lint catalog "SELECT NOPE, WRONG FROM S, NOSUCH WHERE ALSO = 1"
  in
  Alcotest.(check bool) "several NQ101" true (List.length diags >= 3);
  List.iter
    (fun (d : D.t) -> Alcotest.(check string) "all NQ101" "NQ101" d.D.code)
    diags

let test_multiple_statements () =
  let catalog = F.parts_supply_catalog F.Duplicates in
  (* Two statements: the flat one is clean, Q2 draws its two warnings. *)
  let diags = lint catalog ("SELECT PNUM FROM PARTS;\n" ^ F.query_q2 ^ ";") in
  check_codes "second statement only" [ "NQ001"; "NQ003" ] diags;
  List.iter
    (fun (d : D.t) ->
      Alcotest.(check int) "span on line 2" 2 d.D.span.Ast.sp_start.Ast.line)
    diags

(* --- lint's correlation walk ---------------------------------------------- *)

(* Lint's own class of every nested block, in source order: an oracle that
   agrees with nothing makes NQ006 name it. *)
let lint_classes catalog text =
  List.filter_map
    (fun (d : D.t) ->
      if d.D.code <> "NQ006" then None
      else
        Scanf.sscanf_opt d.D.message "lint classifies this block as %s but"
          Fun.id)
    (Lint.lint ~classify:(fun _ -> "none") (F.parse_analyzed catalog text))

let test_lint_correlation () =
  let kim = F.kim_catalog () in
  let case name text ~classes ~diags =
    Alcotest.(check (list string)) (name ^ ": classes") classes
      (lint_classes kim text);
    check_codes (name ^ ": diagnostics") diags (lint kim text)
  in
  case "alias used only by a nested block"
    "SELECT S.SNO FROM S, P WHERE S.SNO IN (SELECT SNO FROM SP WHERE \
     SP.PNO = P.PNO)"
    ~classes:[ "type-J" ] ~diags:[];
  case "alias used only two levels down"
    "SELECT S.SNO FROM S, P WHERE S.SNO IN (SELECT SNO FROM SP WHERE PNO IN \
     (SELECT PNO FROM SP SP2 WHERE SP2.PNO = P.PNO))"
    ~classes:[ "type-J"; "type-J" ] ~diags:[];
  case "skip-level correlation"
    "SELECT SNO FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO IN (SELECT \
     PNO FROM P WHERE P.CITY = S.CITY))"
    ~classes:[ "type-J"; "type-J" ] ~diags:[];
  case "inner block rebinds S"
    "SELECT SNO FROM S WHERE SNO IN (SELECT SNO FROM S WHERE S.CITY = \
     'London')"
    ~classes:[ "type-N" ] ~diags:[];
  case "rebinding hides the outer alias from NQ004"
    "SELECT S.SNO FROM S, P WHERE S.SNO IN (SELECT SNO FROM SP WHERE PNO IN \
     (SELECT PNO FROM P WHERE P.CITY = 'London'))"
    ~classes:[ "type-N"; "type-N" ] ~diags:[ "NQ004" ];
  case "outer block with two relations"
    "SELECT S.SNO FROM S, P WHERE S.CITY = P.CITY AND S.STATUS = (SELECT \
     COUNT(QTY) FROM SP WHERE SP.PNO = P.PNO AND SP.SNO = S.SNO)"
    ~classes:[ "type-JA" ] ~diags:[ "NQ001" ]

(* NQ006 compares lint's walk with [Classify]'s [Ast.free_tables]: they
   agree on 2,000 generated queries and on every corpus query. *)
let test_classify_agrees_everywhere () =
  let fires diags = List.exists (fun (d : D.t) -> d.D.code = "NQ006") diags in
  let catalog = F.parts_supply_catalog F.Duplicates in
  let rng = Random.State.make [| 42 |] in
  let generated = List.init 2000 (fun _ -> Oracle.Gen.query rng) in
  Alcotest.(check (list string)) "generated queries" []
    (List.filter (fun text -> fires (lint catalog text)) generated);
  Alcotest.(check (list string)) "corpus and regression repros" []
    (List.filter_map
       (fun (c : Suite_nested_io.case) ->
         let db = c.Suite_nested_io.c_db ~buffer_pages:64 ~page_bytes:256 in
         if fires (Core.lint_query db c.Suite_nested_io.c_sql) then
           Some c.Suite_nested_io.c_name
         else None)
       (Suite_nested_io.corpus_cases () @ Suite_nested_io.regression_cases ()))

(* --- rewrite verifier ---------------------------------------------------- *)

let verify catalog temps main =
  Analysis.Rewrite_verifier.verify ~lookup:(Catalog.lookup catalog) ~temps
    ~main

let nest_ja_program catalog text ~temp_name =
  let q = F.parse_analyzed catalog text in
  let pred =
    match q.Ast.where with [ p ] -> p | _ -> Alcotest.fail "shape"
  in
  let temp, rewritten = Optimizer.Nest_ja.transform q pred ~temp_name in
  ( [ (temp.Optimizer.Program.name, temp.Optimizer.Program.def) ],
    rewritten )

let test_verifier_rejects_kim_ja_count () =
  (* Kim's buggy NEST-JA on Q2: grouped COUNT without the outer join. *)
  let catalog = F.parts_supply_catalog F.Count_bug in
  let temps, main = nest_ja_program catalog F.query_q2 ~temp_name:"TEMPP" in
  check_codes "buggy NEST-JA(Q2) = NQ904" [ "NQ904" ]
    (verify catalog temps main)

let test_verifier_rejects_kim_ja_neq () =
  (* Kim's buggy NEST-JA on Q5: the grouped key is range-joined back. *)
  let catalog = F.parts_supply_catalog F.Neq_bug in
  let temps, main = nest_ja_program catalog F.query_q5 ~temp_name:"TEMP5" in
  check_codes "buggy NEST-JA(Q5) = NQ903" [ "NQ903" ]
    (verify catalog temps main)


(* Why both checkers stay: the plan checker sees nothing wrong in the plans
   of Kim's buggy NEST-JA programs, in either planner mode — each plan is
   well typed; the bug is in what the program computes, which only the
   verifier's rules catch. *)
let test_plan_check_misses_kim_ja () =
  List.iter
    (fun (variant, text, temp_name, code) ->
      let catalog = F.parts_supply_catalog variant in
      let temps, main = nest_ja_program catalog text ~temp_name in
      check_codes (temp_name ^ ": verifier") [ code ]
        (verify catalog temps main);
      let program =
        {
          Optimizer.Program.temps =
            List.map (fun (name, def) -> { Optimizer.Program.name; def }) temps;
          main;
          notes = [];
          probes = [];
        }
      in
      List.iter
        (fun mode ->
          let segments =
            Optimizer.Planner.check_segments ~mode catalog
              (Optimizer.Planner.Program program)
          in
          Alcotest.(check (list string))
            (temp_name ^ ": plans checked") [ "temp " ^ temp_name; "main" ]
            (List.map (fun (label, _, _) -> label) segments);
          List.iter
            (fun (label, _, diags) ->
              check_codes (temp_name ^ " " ^ label ^ ": plan checker") [] diags)
            segments)
        [ Optimizer.Planner.Paper1987; Optimizer.Planner.Hybrid ])
    [
      (F.Count_bug, F.query_q2, "TEMPP", "NQ904");
      (F.Neq_bug, F.query_q5, "TEMP5", "NQ903");
    ]

let nest_g_program catalog text =
  let q = F.parse_analyzed catalog text in
  Optimizer.Nest_g.transform
    ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
    q

let test_verifier_passes_ja2 () =
  List.iter
    (fun (variant, text) ->
      let catalog = F.parts_supply_catalog variant in
      let program = nest_g_program catalog text in
      check_codes ("NEST-JA2 verifies: " ^ text) []
        (Optimizer.Planner.verify_program catalog program))
    [
      (F.Count_bug, F.query_q2);
      (F.Neq_bug, F.query_q5);
      (F.Duplicates, F.query_q2);
      (F.Count_bug, F.query_q2_count_star);
    ]

(* Mutations of a sound NEST-JA2 program, each tripping one invariant. *)
let test_verifier_mutations () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let program = nest_g_program catalog F.query_q2 in
  let temps =
    List.map
      (fun ({ Optimizer.Program.name; def } : Optimizer.Program.temp) ->
        (name, def))
      program.Optimizer.Program.temps
  in
  let main = program.Optimizer.Program.main in
  (* Sanity: unmutated program is clean. *)
  check_codes "unmutated clean" [] (verify catalog temps main);
  (* NQ901: reference a column no relation provides. *)
  let bad_main =
    {
      main with
      Ast.where =
        Ast.Cmp (Ast.Col (Ast.col ~table:"PARTS" "NOPE"), Ast.Eq,
                 Ast.Lit (Relalg.Value.Int 1))
        :: main.Ast.where;
    }
  in
  Alcotest.(check bool) "dangling ref = NQ901" true
    (List.mem "NQ901" (codes (verify catalog temps bad_main)));
  (* NQ900: a nested predicate survives in the main query. *)
  let nested_main =
    {
      main with
      Ast.where =
        Ast.Exists
          (Ast.query
             ~select:[ Ast.Sel_col (Ast.col ~table:"SUPPLY" "PNUM") ]
             ~from:[ Ast.from "SUPPLY" ] ~where:[] ())
        :: main.Ast.where;
    }
  in
  Alcotest.(check bool) "nested predicate = NQ900" true
    (List.mem "NQ900" (codes (verify catalog temps nested_main)));
  (* NQ906: drop the main query so the last temp is never consumed. *)
  let flat_unrelated =
    F.parse_analyzed catalog "SELECT PNUM FROM PARTS"
  in
  Alcotest.(check bool) "dead temp = NQ906" true
    (List.mem "NQ906" (codes (verify catalog temps flat_unrelated)));
  (* NQ904/NQ905: strip the outer join from the grouped COUNT temp, or
     count a preserved-side column instead. *)
  let mutate_temp f =
    List.map
      (fun (name, (def : Ast.query)) ->
        if def.Ast.group_by <> [] then (name, f def) else (name, def))
      temps
  in
  let no_outer =
    mutate_temp (fun def ->
        {
          def with
          Ast.where =
            List.map
              (function
                | Ast.Cmp_outer (a, op, b) -> Ast.Cmp (a, op, b)
                | p -> p)
              def.Ast.where;
        })
  in
  Alcotest.(check bool) "stripped outer join = NQ904" true
    (List.mem "NQ904" (codes (verify catalog no_outer main)));
  let count_star =
    mutate_temp (fun def ->
        {
          def with
          Ast.select =
            List.map
              (function
                | Ast.Sel_agg (Ast.Count _) -> Ast.Sel_agg Ast.Count_star
                | item -> item)
              def.Ast.select;
        })
  in
  Alcotest.(check bool) "COUNT(*) in outer-join temp = NQ905" true
    (List.mem "NQ905" (codes (verify catalog count_star main)))

(* --- properties ---------------------------------------------------------- *)

let seed_gen = QCheck2.Gen.int_range 0 100_000

(* Every generated nested query produces only warnings/info, never lint
   errors: the classification cross-check holds and analysis is clean. *)
let prop_lint_no_errors =
  QCheck2.Test.make ~name:"generated queries never lint as errors" ~count:150
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n_parts = G.int_in rng 1 10 in
      let n_supply = G.int_in rng 0 20 in
      let key_range = G.int_in rng 1 6 in
      let catalog =
        G.parts_supply_catalog rng ~n_parts ~n_supply ~key_range
      in
      let text =
        (List.nth
           [ G.n_query; G.a_query; G.j_query; G.ja_query; G.deep_query ]
           (G.int_in rng 0 4))
          rng
      in
      not (D.has_errors (lint catalog text)))

(* Every transformable generated query verifies clean. *)
let prop_transforms_verify =
  QCheck2.Test.make ~name:"NEST-G programs pass the rewrite verifier"
    ~count:150 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n_parts = G.int_in rng 1 10 in
      let n_supply = G.int_in rng 0 20 in
      let key_range = G.int_in rng 1 6 in
      let catalog =
        G.parts_supply_catalog rng ~n_parts ~n_supply ~key_range
      in
      let text =
        (List.nth
           [ G.n_query; G.a_query; G.j_query; G.ja_query; G.deep_query ]
           (G.int_in rng 0 4))
          rng
      in
      match nest_g_program catalog text with
      | program -> Optimizer.Planner.verify_program catalog program = []
      | exception Optimizer.Program.Refused _ -> true)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "analysis.lint",
      [
        Alcotest.test_case "Kim examples golden" `Quick
          test_kim_examples_clean;
        Alcotest.test_case "COUNT-bug query (NQ001)" `Quick
          test_count_bug_query;
        Alcotest.test_case "non-equality query (NQ002)" `Quick test_neq_query;
        Alcotest.test_case "duplicates query (NQ003)" `Quick
          test_duplicates_query;
        Alcotest.test_case "NEST-JA2 rewrites lint clean" `Quick
          test_ja2_rewrites_lint_clean;
        Alcotest.test_case "unused alias / constant false" `Quick
          test_unused_alias_and_constant_false;
        Alcotest.test_case "no rewrite available (NQ007)" `Quick
          test_no_rewrite_available;
        Alcotest.test_case "multiplicity-sensitive merge (NQ008)" `Quick
          test_multiplicity_sensitive_merge;
        Alcotest.test_case "classification cross-check (NQ006)" `Quick
          test_classification_cross_check;
        Alcotest.test_case "parse error (NQ100)" `Quick test_parse_error_diag;
        Alcotest.test_case "analyzer collects all (NQ101)" `Quick
          test_analyzer_collects_all;
        Alcotest.test_case "multiple statements" `Quick
          test_multiple_statements;
        Alcotest.test_case "correlation from lint's walk" `Quick
          test_lint_correlation;
        Alcotest.test_case "NQ006 silent on generated and corpus queries"
          `Quick test_classify_agrees_everywhere;
      ] );
    ( "analysis.verifier",
      [
        Alcotest.test_case "rejects Kim NEST-JA on Q2 (NQ904)" `Quick
          test_verifier_rejects_kim_ja_count;
        Alcotest.test_case "rejects Kim NEST-JA on Q5 (NQ903)" `Quick
          test_verifier_rejects_kim_ja_neq;
        Alcotest.test_case "plan checker passes Kim NEST-JA plans" `Quick
          test_plan_check_misses_kim_ja;
        Alcotest.test_case "passes NEST-JA2 programs" `Quick
          test_verifier_passes_ja2;
        Alcotest.test_case "mutations trip the right codes" `Quick
          test_verifier_mutations;
      ] );
    ( "analysis.properties",
      [ qtest prop_lint_no_errors; qtest prop_transforms_verify ] );
  ]

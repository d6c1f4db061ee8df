(* The transformation algorithms: classification, NEST-N-J, Kim's buggy
   NEST-JA (reproducing the paper's wrong answers), NEST-JA2 (reproducing
   the fixes), the §8 extension rewrites, the recursive NEST-G driver, the
   cost model, and the planner. *)

module Value = Relalg.Value
module Row = Relalg.Row
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module Pager = Storage.Pager
module F = Workload.Fixtures
open Optimizer

let parse = F.parse_analyzed

let fresh_counter () =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "TEMP%d" !n

let ints rel name =
  List.map
    (function Value.Int i -> i | v -> Alcotest.failf "not int: %a" Value.pp v)
    (Relation.column_values rel name)
  |> List.sort compare

(* Run a full pipeline: NEST-G transform, then plan+execute the program. *)
let transform_and_run ?(force = Planner.Auto) catalog text =
  let q = parse catalog text in
  let program = Nest_g.transform ~fresh:(fun () -> Catalog.fresh_temp_name catalog) q in
  let result = Planner.run_program ~force ~verify:true catalog program in
  (program, result)

(* --- Classification ------------------------------------------------------ *)

let classification = Alcotest.testable Classify.pp (fun a b -> a = b)

let classify_text catalog text =
  let q = parse catalog text in
  match Classify.classify_query q with
  | Some c -> c
  | None -> Alcotest.fail "expected a nested query"

let test_classify_paper_examples () =
  let kim = F.kim_catalog () in
  Alcotest.(check classification) "example 1 is N" Classify.Type_n
    (classify_text kim F.example1);
  Alcotest.(check classification) "example 2 is A" Classify.Type_a
    (classify_text kim F.example2);
  Alcotest.(check classification) "example 3 is N" Classify.Type_n
    (classify_text kim F.example3);
  Alcotest.(check classification) "example 4 is J" Classify.Type_j
    (classify_text kim F.example4);
  Alcotest.(check classification) "example 5 is JA" Classify.Type_ja
    (classify_text kim F.example5);
  let ps = F.parts_supply_catalog F.Count_bug in
  Alcotest.(check classification) "Q2 is JA" Classify.Type_ja
    (classify_text ps F.query_q2);
  Alcotest.(check classification) "Q5 is JA" Classify.Type_ja
    (classify_text ps F.query_q5)

let test_classify_flat () =
  let kim = F.kim_catalog () in
  let q = parse kim "SELECT SNO FROM S WHERE STATUS > 20" in
  Alcotest.(check bool) "flat query" true (Classify.classify_query q = None)

(* --- NEST-N-J ------------------------------------------------------------ *)

let test_nest_nj_example1 () =
  let kim = F.kim_catalog () in
  let q = parse kim F.example1 in
  let merged =
    match q.Sql.Ast.where with
    | [ pred ] -> Nest_n_j.merge_predicate q pred
    | _ -> Alcotest.fail "shape"
  in
  Alcotest.(check int) "two FROM tables" 2 (List.length merged.Sql.Ast.from);
  Alcotest.(check bool) "canonical" true (Program.is_canonical merged);
  (* evaluate both forms by nested iteration: same (set) result *)
  let reference = Exec.Nested_iter.run kim q in
  let transformed = Exec.Nested_iter.run kim merged in
  Alcotest.(check bool) "same result" true
    (Relation.equal_set reference transformed)

let test_nest_nj_alias_conflict () =
  let kim = F.kim_catalog () in
  (* Outer and inner both bind SP: the inner binding must be renamed. *)
  let q =
    parse kim
      "SELECT SNO FROM SP WHERE QTY IN (SELECT QTY FROM SP WHERE PNO = 'P2')"
  in
  let merged =
    match q.Sql.Ast.where with
    | [ pred ] -> Nest_n_j.merge_predicate q pred
    | _ -> Alcotest.fail "shape"
  in
  let aliases = List.map Sql.Ast.from_alias merged.Sql.Ast.from in
  Alcotest.(check bool) "aliases distinct" true
    (List.length (List.sort_uniq compare aliases) = List.length aliases);
  let reference = Exec.Nested_iter.run kim q in
  let transformed = Exec.Nested_iter.run kim merged in
  Alcotest.(check bool) "same result" true
    (Relation.equal_set reference transformed)

let test_nest_nj_merge_all () =
  let kim = F.kim_catalog () in
  (* Two sibling nested predicates, both merged in one call. *)
  let q =
    parse kim
      "SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P WHERE WEIGHT > 15)        AND SNO IN (SELECT SNO FROM S WHERE CITY = 'Paris')"
  in
  let merged = Nest_n_j.merge_all q in
  Alcotest.(check bool) "canonical after merge_all" true
    (Program.is_canonical merged);
  Alcotest.(check int) "three FROM tables" 3 (List.length merged.Sql.Ast.from);
  let reference = Exec.Nested_iter.run kim q in
  let transformed = Exec.Nested_iter.run kim merged in
  Alcotest.(check bool) "same result" true
    (Relation.equal_set reference transformed)

let test_nest_nj_rejects_agg () =
  let kim = F.kim_catalog () in
  let q = parse kim F.example2 in
  match q.Sql.Ast.where with
  | [ pred ] ->
      Alcotest.(check bool) "raises" true
        (try
           ignore (Nest_n_j.merge_predicate q pred);
           false
         with Nest_n_j.Not_applicable _ -> true)
  | _ -> Alcotest.fail "shape"

(* --- Kim's NEST-JA: the bugs, reproduced -------------------------------- *)

(* E3: the COUNT bug (§5.1).  On Kiessling's data, nested iteration gives
   {10, 8} but Kim's transformation builds TEMP' = {(3,2), (10,1)} — the
   COUNT can never be 0, so part 8 has no group — and the final join keeps
   only {10}.  We assert both the TEMP' contents the paper prints and the
   divergence of the two results. *)
let test_kim_ja_count_bug () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q = parse catalog F.query_q2 in
  let pred = match q.Sql.Ast.where with [ p ] -> p | _ -> Alcotest.fail "shape" in
  let temp, rewritten = Nest_ja.transform q pred ~temp_name:"TEMPP" in
  Planner.materialize_temp catalog temp;
  (* TEMP' as printed in the paper: {(3,2), (10,1)} — no row for 8. *)
  let temp_rel = Catalog.relation catalog "TEMPP" in
  Alcotest.(check (list int)) "TEMP' group keys" [ 3; 10 ]
    (ints temp_rel "PNUM");
  Alcotest.(check (list int)) "TEMP' counts" [ 1; 2 ]
    (ints temp_rel "COUNT_SHIPDATE");
  (* Transformed result: {10} — differs from nested iteration's {10, 8}. *)
  let { Planner.plan; _ } = Planner.lower catalog rewritten in
  let transformed = Exec.Plan.run catalog plan in
  Alcotest.(check (list int)) "buggy transformed result" [ 10 ]
    (ints transformed "PNUM");
  let reference = Exec.Nested_iter.run catalog q in
  Alcotest.(check (list int)) "nested iteration result" [ 8; 10 ]
    (ints reference "PNUM");
  Alcotest.(check bool) "bug: results differ" false
    (Relation.equal_set reference transformed)

(* E4: the non-equality bug (§5.3).  With [<] in the correlation predicate
   Kim's temp groups by the inner PNUM, aggregating the wrong ranges; the
   paper's tables give TEMP5 = {(3,4),(10,1),(9,5)} and final result
   {10, 8} where nested iteration gives {8}. *)
let test_kim_ja_neq_bug () =
  let catalog = F.parts_supply_catalog F.Neq_bug in
  let q = parse catalog F.query_q5 in
  let pred = match q.Sql.Ast.where with [ p ] -> p | _ -> Alcotest.fail "shape" in
  let temp, rewritten = Nest_ja.transform q pred ~temp_name:"TEMP5" in
  Planner.materialize_temp catalog temp;
  let temp_rel = Catalog.relation catalog "TEMP5" in
  Alcotest.(check (list int)) "TEMP5 keys" [ 3; 9; 10 ] (ints temp_rel "PNUM");
  Alcotest.(check (list int)) "TEMP5 maxima" [ 1; 4; 5 ]
    (ints temp_rel "MAX_QUAN");
  let { Planner.plan; _ } = Planner.lower catalog rewritten in
  let transformed = Exec.Plan.run catalog plan in
  Alcotest.(check (list int)) "buggy transformed result" [ 8; 10 ]
    (ints transformed "PNUM");
  let reference = Exec.Nested_iter.run catalog q in
  Alcotest.(check (list int)) "nested iteration result" [ 8 ]
    (ints reference "PNUM")

(* --- NEST-JA2: the fixes -------------------------------------------------- *)

let nest_ja2_run catalog text =
  let q = parse catalog text in
  let pred = match q.Sql.Ast.where with [ p ] -> p | _ -> Alcotest.fail "shape" in
  let { Nest_ja2.temps; rewritten; _ } =
    Nest_ja2.transform q pred ~fresh:(fresh_counter ()) ()
  in
  List.iter (Planner.materialize_temp catalog) temps;
  let { Planner.plan; _ } = Planner.lower catalog rewritten in
  (temps, Exec.Plan.run catalog plan)

let test_ja2_fixes_count_bug () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let temps, result = nest_ja2_run catalog F.query_q2 in
  Alcotest.(check int) "three temps (TEMP1, TEMP2, TEMP3)" 3 (List.length temps);
  Alcotest.(check (list int)) "fixed result {10, 8}" [ 8; 10 ]
    (ints result "PNUM");
  (* TEMP3 as the paper prints it: {(3,2), (10,1), (8,0)}. *)
  let temp3 = Catalog.relation catalog "TEMP3" in
  Alcotest.(check (list int)) "TEMP3 keys" [ 3; 8; 10 ] (ints temp3 "PNUM");
  Alcotest.(check (list int)) "TEMP3 counts include 0" [ 0; 1; 2 ]
    (ints temp3 "COUNT_SHIPDATE")

let test_ja2_count_star () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let _, result = nest_ja2_run catalog F.query_q2_count_star in
  Alcotest.(check (list int)) "COUNT(*) result {10, 8}" [ 8; 10 ]
    (ints result "PNUM")

let test_ja2_fixes_neq_bug () =
  let catalog = F.parts_supply_catalog F.Neq_bug in
  let temps, result = nest_ja2_run catalog F.query_q5 in
  (* non-COUNT: two temps only (no TEMP2). *)
  Alcotest.(check int) "two temps" 2 (List.length temps);
  Alcotest.(check (list int)) "fixed result {8}" [ 8 ] (ints result "PNUM");
  (* The paper's TEMP6: SUPPNUM {10, 8} with maxima {4, 4}. *)
  let temp3 = Catalog.relation catalog "TEMP2" in
  Alcotest.(check (list int)) "TEMP6 keys" [ 8; 10 ] (ints temp3 "PNUM");
  (* grouped maxima: PNUM 8 -> 4, PNUM 10 -> 5 (column-sorted view) *)
  Alcotest.(check (list int)) "TEMP6 maxima" [ 4; 5 ] (ints temp3 "MAX_QUAN")

let test_ja2_fixes_duplicates () =
  let catalog = F.parts_supply_catalog F.Duplicates in
  let _, result = nest_ja2_run catalog F.query_q2 in
  Alcotest.(check (list int)) "result {3, 10, 8}" [ 3; 8; 10 ]
    (ints result "PNUM");
  (* TEMP1 is the DISTINCT projection {3, 10, 8}; TEMP3 counts {2, 1, 0}. *)
  let temp1 = Catalog.relation catalog "TEMP1" in
  Alcotest.(check (list int)) "TEMP1 distinct keys" [ 3; 8; 10 ]
    (ints temp1 "PNUM");
  let temp3 = Catalog.relation catalog "TEMP3" in
  Alcotest.(check (list int)) "TEMP3 counts" [ 0; 1; 2 ]
    (ints temp3 "COUNT_SHIPDATE")

let test_ja2_unprojected_variant_still_wrong () =
  (* §5.4's intermediate variant: outer join fixes the COUNT bug but joining
     the raw (unprojected) outer relation inflates counts when PARTS has
     duplicate PNUMs.  On the §5.4 instance the paper's wrong result is {8};
     TEMP3 holds the inflated counts {(3,4), (10,2), (8,0)}. *)
  let catalog = F.parts_supply_catalog F.Duplicates in
  let q = parse catalog F.query_q2 in
  let pred = match q.Sql.Ast.where with [ p ] -> p | _ -> Alcotest.fail "shape" in
  let { Nest_ja2.temps; rewritten; _ } =
    Nest_ja2.transform q pred ~fresh:(fresh_counter ()) ~project_outer:false ()
  in
  List.iter (Planner.materialize_temp catalog) temps;
  let temp3 = Catalog.relation catalog "TEMP3" in
  Alcotest.(check (list int)) "inflated counts" [ 0; 2; 4 ]
    (ints temp3 "COUNT_SHIPDATE");
  let { Planner.plan; _ } = Planner.lower catalog rewritten in
  let transformed = Exec.Plan.run catalog plan in
  Alcotest.(check (list int)) "paper's wrong result {8}" [ 8 ]
    (ints transformed "PNUM");
  let reference = Exec.Nested_iter.run catalog q in
  Alcotest.(check bool) "differs from nested iteration" false
    (Relation.equal_set reference transformed)

let test_ja2_restriction_before_join () =
  (* §5.2 stresses that inner simple predicates apply before the outer
     join: TEMP2 must already be restricted by SHIPDATE < 1-1-80.  Check
     TEMP2 contents. *)
  let catalog = F.parts_supply_catalog F.Count_bug in
  let _ = nest_ja2_run catalog F.query_q2 in
  let temp2 = Catalog.relation catalog "TEMP2" in
  Alcotest.(check (list int)) "TEMP2 restricted rows" [ 3; 3; 10 ]
    (ints temp2 "PNUM")

let test_ja2_outer_simple_predicates_restrict_temp1 () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let text =
    "SELECT PNUM FROM PARTS WHERE PNUM > 5 AND QOH = (SELECT COUNT(SHIPDATE) \
     FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80')"
  in
  let q = parse catalog text in
  let pred =
    match q.Sql.Ast.where with
    | [ _; p ] -> p
    | _ -> Alcotest.fail "shape"
  in
  let { Nest_ja2.temps; rewritten; _ } =
    Nest_ja2.transform q pred ~fresh:(fresh_counter ()) ()
  in
  List.iter (Planner.materialize_temp catalog) temps;
  let temp1 = Catalog.relation catalog "TEMP1" in
  Alcotest.(check (list int)) "TEMP1 restricted by PNUM > 5" [ 8; 10 ]
    (ints temp1 "PNUM");
  let { Planner.plan; _ } = Planner.lower catalog rewritten in
  let result = Exec.Plan.run catalog plan in
  let reference = Exec.Nested_iter.run catalog q in
  Alcotest.(check bool) "matches reference" true
    (Relation.equal_bag reference result)

let test_ja2_multi_column_correlation () =
  (* Correlation on two columns; reference vs transformed. *)
  let pager = Pager.create ~buffer_pages:8 ~page_bytes:64 () in
  let catalog = Catalog.create pager in
  Catalog.register_relation catalog "O"
    (Relation.of_values ~rel:"O"
       [ ("A", Value.Tint); ("B", Value.Tint); ("T", Value.Tint) ]
       [
         [ Value.Int 1; Value.Int 1; Value.Int 2 ];
         [ Value.Int 1; Value.Int 2; Value.Int 0 ];
         [ Value.Int 2; Value.Int 1; Value.Int 1 ];
       ]);
  Catalog.register_relation catalog "I"
    (Relation.of_values ~rel:"I"
       [ ("A", Value.Tint); ("B", Value.Tint); ("V", Value.Tint) ]
       [
         [ Value.Int 1; Value.Int 1; Value.Int 5 ];
         [ Value.Int 1; Value.Int 1; Value.Int 7 ];
         [ Value.Int 2; Value.Int 1; Value.Int 9 ];
       ]);
  let text =
    "SELECT A FROM O WHERE T = (SELECT COUNT(V) FROM I WHERE I.A = O.A AND \
     I.B = O.B)"
  in
  let _, result = nest_ja2_run catalog text in
  let reference = Exec.Nested_iter.run catalog (parse catalog text) in
  Alcotest.(check bool) "multi-column correlation" true
    (Relation.equal_bag reference result);
  (* both rows with A=1 qualify (counts 2 and 0), plus A=2 *)
  Alcotest.(check (list int)) "values" [ 1; 1; 2 ] (ints result "A")

(* --- §8 extensions -------------------------------------------------------- *)

let test_extension_rewrites_shapes () =
  let kim = F.kim_catalog () in
  let q =
    parse kim
      "SELECT SNAME FROM S WHERE EXISTS (SELECT SNO FROM SP WHERE SP.SNO = \
       S.SNO)"
  in
  let q' = Extensions.rewrite_query q in
  (match q'.Sql.Ast.where with
  | [ Sql.Ast.Cmp_subq (Sql.Ast.Lit (Value.Int 0), Sql.Ast.Lt, sub) ] ->
      Alcotest.(check bool) "COUNT(*) select" true
        (sub.Sql.Ast.select = [ Sql.Ast.Sel_agg Sql.Ast.Count_star ])
  | _ -> Alcotest.fail "EXISTS shape");
  let q =
    parse kim "SELECT PNO FROM P WHERE WEIGHT < ANY (SELECT QTY FROM SP)"
  in
  match (Extensions.rewrite_query q).Sql.Ast.where with
  | [ Sql.Ast.Cmp_subq (_, Sql.Ast.Lt, sub) ] -> (
      match sub.Sql.Ast.select with
      | [ Sql.Ast.Sel_agg (Sql.Ast.Max _) ] -> ()
      | _ -> Alcotest.fail "< ANY should become MAX")
  | _ -> Alcotest.fail "ANY shape"

(* Semantic checks: rewritten queries match the reference evaluator. *)
let test_extension_semantics () =
  let cases =
    [
      "SELECT SNAME FROM S WHERE EXISTS (SELECT SNO FROM SP WHERE SP.SNO = \
       S.SNO)";
      "SELECT SNAME FROM S WHERE NOT EXISTS (SELECT SNO FROM SP WHERE SP.SNO \
       = S.SNO)";
      "SELECT PNO FROM P WHERE WEIGHT < ANY (SELECT QTY FROM SP)";
      "SELECT PNO FROM P WHERE WEIGHT <= ANY (SELECT WEIGHT FROM P X WHERE \
       X.CITY = P.CITY)";
      (* the inner P needs its own alias: the guarded ALL rewrite inlines
         the outer WEIGHT into the subquery and refuses when the alias
         would be captured *)
      "SELECT PNO FROM P WHERE WEIGHT >= ALL (SELECT WEIGHT FROM P X)";
      "SELECT PNO FROM P WHERE WEIGHT > ANY (SELECT WEIGHT FROM P)";
      "SELECT SNO FROM S WHERE SNO = ANY (SELECT SNO FROM SP)";
      "SELECT PNO FROM P WHERE WEIGHT != ANY (SELECT WEIGHT FROM P X)";
    ]
  in
  let kim = F.kim_catalog () in
  (* The Kim fixture relations are NULL-free, so the guarded COUNT forms
     (range ALL, != ANY) are provable and exercised here. *)
  let nullable ~rel:_ _ = false in
  List.iter
    (fun text ->
      let q = parse kim text in
      let q' = Extensions.rewrite_query ~nullable q in
      let a = Exec.Nested_iter.run kim q in
      let b = Exec.Nested_iter.run kim q' in
      if not (Relation.equal_bag a b) then
        Alcotest.failf "extension rewrite changed semantics for %s" text)
    cases

(* Golden forms of the two §8 rules the paper got wrong, safe vs verbatim:
   != ANY must count satisfying items (NOT IN states the wrong condition
   even NULL-free), range ALL must count violating items (MIN/MAX breaks
   on empty or NULL-bearing inners). *)
let test_extension_unsound_rule_golden () =
  let kim = F.kim_catalog () in
  let nullable ~rel:_ _ = false in
  (* one line: the pretty-printer breaks clauses onto separate lines *)
  let pp q =
    String.concat " " (String.split_on_char '\n' (Sql.Pp.query_to_string q))
  in
  let q =
    parse kim "SELECT PNO FROM P WHERE WEIGHT != ANY (SELECT WEIGHT FROM P X)"
  in
  Alcotest.(check string) "safe != ANY: guarded COUNT form"
    "SELECT P.PNO FROM P WHERE 0 < (SELECT COUNT(*) FROM P X WHERE P.WEIGHT \
     != X.WEIGHT)"
    (pp (Extensions.rewrite_query ~nullable q));
  Alcotest.(check string) "paper != ANY: NOT IN, verbatim"
    "SELECT P.PNO FROM P WHERE P.WEIGHT NOT IN (SELECT X.WEIGHT FROM P X)"
    (pp (Extensions.rewrite_query ~paper:true q));
  let q2 =
    parse kim "SELECT PNO FROM P WHERE WEIGHT >= ALL (SELECT WEIGHT FROM P X)"
  in
  Alcotest.(check string) "safe >= ALL: count violations"
    "SELECT P.PNO FROM P WHERE 0 = (SELECT COUNT(*) FROM P X WHERE P.WEIGHT \
     < X.WEIGHT)"
    (pp (Extensions.rewrite_query ~nullable q2));
  Alcotest.(check string) "paper >= ALL: MAX, verbatim"
    "SELECT P.PNO FROM P WHERE P.WEIGHT >= (SELECT MAX(X.WEIGHT) FROM P X)"
    (pp (Extensions.rewrite_query ~paper:true q2));
  (* and the paper's != ANY rule is wrong on this very fixture: with two
     or more distinct weights, every row satisfies != ANY but none
     survives NOT IN *)
  let reference = Exec.Nested_iter.run kim q in
  let safe = Exec.Nested_iter.run kim (Extensions.rewrite_query ~nullable q) in
  let paper =
    Exec.Nested_iter.run kim (Extensions.rewrite_query ~paper:true q)
  in
  Alcotest.(check bool) "safe form agrees" true
    (Relation.equal_bag reference safe);
  Alcotest.(check bool) "paper form diverges here" false
    (Relation.equal_bag reference paper)

let test_extension_eq_all_unsupported () =
  let kim = F.kim_catalog () in
  let q = parse kim "SELECT SNO FROM S WHERE SNO = ALL (SELECT SNO FROM SP)" in
  Alcotest.(check bool) "= ALL unsupported" true
    (try
       ignore (Extensions.rewrite_query q);
       false
     with Extensions.Unsupported _ -> true)

(* --- NEST-G end to end ---------------------------------------------------- *)

let nest_g_matches_reference ?force catalog text =
  let reference = Exec.Nested_iter.run catalog (parse catalog text) in
  let program, result = transform_and_run ?force catalog text in
  Alcotest.(check bool)
    (Printf.sprintf "canonical program for %s" text)
    true
    (Program.is_fully_canonical program);
  if not (Relation.equal_set reference result) then
    Alcotest.failf "transformed result differs for %s:@.ref:@.%a@.got:@.%a"
      text Relation.pp reference Relation.pp result

let test_nest_g_paper_queries () =
  nest_g_matches_reference (F.kim_catalog ()) F.example1;
  nest_g_matches_reference (F.kim_catalog ()) F.example2;
  nest_g_matches_reference (F.kim_catalog ()) F.example3;
  nest_g_matches_reference (F.kim_catalog ()) F.example4;
  nest_g_matches_reference (F.kim_catalog ()) F.example5;
  nest_g_matches_reference (F.parts_supply_catalog F.Count_bug) F.query_q2;
  nest_g_matches_reference (F.parts_supply_catalog F.Neq_bug) F.query_q5;
  nest_g_matches_reference (F.parts_supply_catalog F.Duplicates) F.query_q2;
  nest_g_matches_reference
    (F.parts_supply_catalog F.Count_bug)
    F.query_q2_count_star

let test_nest_g_two_levels () =
  (* N nesting inside J nesting. *)
  let text =
    "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE SP.ORIGIN = \
     S.CITY AND PNO IN (SELECT PNO FROM P WHERE WEIGHT > 15))"
  in
  nest_g_matches_reference (F.kim_catalog ()) text

let test_nest_g_ja_inside_j () =
  (* JA at depth 2: innermost aggregates over SP correlated with P. *)
  let text =
    "SELECT SNAME FROM S WHERE SNO IN (SELECT SNO FROM SP WHERE PNO IN \
     (SELECT PNO FROM P WHERE P.WEIGHT = (SELECT MAX(QTY) FROM SP X WHERE \
     X.PNO = P.PNO)))"
  in
  nest_g_matches_reference (F.kim_catalog ()) text

let test_nest_g_trans_aggregate () =
  (* A correlated J-block nested inside the aggregate block: after the inner
     merge, the aggregate block carries the inherited join predicate and is
     transformed by NEST-JA2.  MAX keeps the merge duplicate-insensitive. *)
  let text =
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY \
     WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.QUAN IN (SELECT QUAN FROM \
     SUPPLY X WHERE X.PNUM = SUPPLY.PNUM))"
  in
  nest_g_matches_reference (F.parts_supply_catalog F.Count_bug) text

let test_nest_g_safe_vs_paper_semantics () =
  (* A correlated IN below COUNT: Safe mode refuses (NEST-N-J would inflate
     the count); Paper mode reproduces the published — multiplicity-buggy —
     behaviour.  Data is chosen so the bug actually shows: part 3 has two
     shipments with the same QUAN. *)
  let pager = Pager.create ~buffer_pages:8 ~page_bytes:64 () in
  let catalog = Catalog.create pager in
  Catalog.register_relation catalog "PARTS"
    (Relation.of_values ~rel:"PARTS"
       [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
       [ [ Value.Int 3; Value.Int 2 ] ]);
  Catalog.register_relation catalog "SUPPLY"
    (Relation.of_values ~rel:"SUPPLY"
       [ ("PNUM", Value.Tint); ("QUAN", Value.Tint) ]
       [ [ Value.Int 3; Value.Int 7 ]; [ Value.Int 3; Value.Int 7 ] ]);
  let text =
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY \
     WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN IN (SELECT QUAN FROM SUPPLY X \
     WHERE X.PNUM = SUPPLY.PNUM))"
  in
  let q = parse catalog text in
  (* Safe: refused. *)
  Alcotest.(check bool) "safe mode refuses" true
    (try
       ignore (Nest_g.transform ~fresh:(fresh_counter ()) q);
       false
     with Nest_g.Unsupported _ -> true);
  (* Paper: runs, but the count is inflated (2 matches x 2 members = 4),
     so part 3 (QOH 2) is lost; nested iteration keeps it. *)
  let program =
    Nest_g.transform ~semantics:Nest_g.Paper
      ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
      q
  in
  let transformed = Planner.run_program catalog program in
  let reference = Exec.Nested_iter.run catalog q in
  Alcotest.(check (list int)) "reference keeps part 3" [ 3 ]
    (ints reference "PNUM");
  Alcotest.(check (list int)) "paper mode loses part 3" []
    (ints transformed "PNUM")

let test_nest_g_figure2_tree () =
  (* Figure 2's four-block chain A-B-C-E with the trans-aggregate reference
     in E targeting A's relation: E references PARTS (block A) while B
     aggregates.  Built on the PARTS/SUPPLY data. *)
  let text =
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY WHERE \
     SUPPLY.QUAN IN (SELECT QUAN FROM SUPPLY C WHERE C.SHIPDATE IN (SELECT \
     SHIPDATE FROM SUPPLY E WHERE E.PNUM = PARTS.PNUM)))"
  in
  nest_g_matches_reference (F.parts_supply_catalog F.Neq_bug) text

let test_nest_g_not_in_unsupported () =
  let kim = F.kim_catalog () in
  let q = parse kim "SELECT SNO FROM S WHERE SNO NOT IN (SELECT SNO FROM SP)" in
  Alcotest.(check bool) "NOT IN unsupported by default" true
    (try
       ignore (Nest_g.transform ~fresh:(fresh_counter ()) q);
       false
     with Nest_g.Unsupported _ -> true)

let test_nest_g_not_in_extension () =
  let catalog = F.kim_catalog () in
  let text = "SELECT SNO FROM S WHERE SNO NOT IN (SELECT SNO FROM SP)" in
  let q = parse catalog text in
  let program =
    (* Kim's relations are NULL-free; the NOT IN guard needs the proof. *)
    Nest_g.transform ~rewrite_not_in:true ~nullable:(fun ~rel:_ _ -> false)
      ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
      q
  in
  let result = Planner.run_program ~verify:true catalog program in
  let reference = Exec.Nested_iter.run catalog q in
  Alcotest.(check bool) "NOT IN via COUNT extension" true
    (Relation.equal_set reference result)

(* Both join methods give the same answers. *)
let test_force_methods_agree () =
  List.iter
    (fun force ->
      nest_g_matches_reference ~force (F.parts_supply_catalog F.Count_bug)
        F.query_q2;
      nest_g_matches_reference ~force (F.parts_supply_catalog F.Neq_bug)
        F.query_q5)
    [ Planner.Force_nl; Planner.Force_merge; Planner.Force_hash ]

(* --- Cost model ----------------------------------------------------------- *)

let test_cost_sect_7_4 () =
  (* Pi=50 Pj=30 Pt2=7 Pt3=10 Pt4=8 Pt=5 B=6 f·Ni=100: nested iteration 3050,
     NEST-JA2 with two merge joins "about 475" (478.6 exactly). *)
  let p =
    {
      Cost.pi = 50.; pj = 30.; pt2 = 7.; pt3 = 10.; pt4 = 8.; pt = 5.;
      b = 6; fi_ni = 100.; nt2 = 100.;
    }
  in
  Alcotest.(check int) "nested iteration 3050" 3050
    (int_of_float (Cost.nested_iteration ~pi:p.pi ~pj:p.pj ~fi_ni:p.fi_ni));
  let total = Cost.ja2_total_merge p in
  Alcotest.(check bool)
    (Printf.sprintf "JA2 total %.1f within [470, 485]" total)
    true
    (total > 470. && total < 485.);
  (* the four §7.4 strategies include the all-merge one, equal to the
     closed-form total *)
  let strategies = Cost.ja2_strategies p in
  Alcotest.(check int) "four strategies" 4 (List.length strategies);
  let all_merge =
    List.find
      (fun s -> s.Cost.temp_method = "merge" && s.Cost.final_method = "merge")
      strategies
  in
  Alcotest.(check bool) "strategy total consistent" true
    (Float.abs (all_merge.Cost.cost -. total) < 1e-6)

let test_cost_figure1_type_n () =
  (* Kim's type-N example: Pi=20, Pj=100, B=6; transformation followed by a
     merge join (sorting only the inner) = 720 page I/Os with ceilinged
     logs, against roughly 10,220 for nested iteration. *)
  let transformed =
    Cost.nest_nj_merge ~rounding:Cost.Ceil ~sort_outer:false ~b:6 ~pi:20.
      ~pj:100. ()
  in
  Alcotest.(check int) "Kim's 720" 720 (int_of_float transformed);
  let nested = Cost.nested_iteration ~pi:20. ~pj:100. ~fi_ni:102. in
  Alcotest.(check int) "Kim's 10220" 10220 (int_of_float nested)

let test_cost_monotonic () =
  (* Sanity: costs grow with relation size and shrink with buffer size. *)
  let c b pj = Cost.nest_nj_merge ~b ~pi:50. ~pj () in
  Alcotest.(check bool) "larger inner costs more" true (c 6 200. > c 6 100.);
  Alcotest.(check bool) "more buffers cost less" true (c 20 200. < c 4 200.);
  Alcotest.(check bool) "sort of one page free" true
    (Cost.sort_cost ~b:6 1. = 0.)

let test_cost_savings_shape () =
  (* The paper's headline: 80-95% savings for correlated queries once the
     inner no longer fits in memory. *)
  let p =
    {
      Cost.pi = 50.; pj = 30.; pt2 = 7.; pt3 = 10.; pt4 = 8.; pt = 5.;
      b = 6; fi_ni = 100.; nt2 = 100.;
    }
  in
  let nested = Cost.nested_iteration ~pi:p.pi ~pj:p.pj ~fi_ni:p.fi_ni in
  let best =
    List.fold_left
      (fun acc s -> Float.min acc s.Cost.cost)
      infinity (Cost.ja2_strategies p)
  in
  let savings = (nested -. best) /. nested in
  Alcotest.(check bool)
    (Printf.sprintf "savings %.0f%% in [0.8, 0.95]" (savings *. 100.))
    true
    (savings > 0.8 && savings < 0.96)

(* --- Planner -------------------------------------------------------------- *)

let test_planner_pushes_restrictions () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q =
    parse catalog
      "SELECT PNUM FROM SUPPLY WHERE SHIPDATE < '1-1-80' AND QUAN > 1"
  in
  let { Planner.plan; _ } = Planner.lower catalog q in
  (match plan with
  | Exec.Plan.Project (_, Exec.Plan.Filter (preds, Exec.Plan.Scan "SUPPLY")) ->
      Alcotest.(check int) "both filters pushed" 2 (List.length preds)
  | _ -> Alcotest.fail "expected Project(Filter(Scan))");
  let result = Exec.Plan.run catalog (Planner.lower catalog q).Planner.plan in
  Alcotest.(check (list int)) "rows" [ 3; 3 ] (ints result "PNUM")

let test_planner_join_method_choice () =
  (* Big inner that does not fit in the pool: merge join should win; a tiny
     inner that fits: nested loops should win. *)
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:64 () in
  let catalog = Catalog.create pager in
  let mk n =
    Relation.of_values ~rel:"X"
      [ ("K", Value.Tint); ("V", Value.Tint) ]
      (List.init n (fun i -> [ Value.Int i; Value.Int (i * 2) ]))
  in
  Catalog.register_relation catalog "BIG1" (mk 400);
  Catalog.register_relation catalog "BIG2" (mk 400);
  Catalog.register_relation catalog "TINY" (mk 4);
  let join_method_of text =
    let q = parse catalog text in
    let { Planner.plan; _ } = Planner.lower catalog q in
    let rec find = function
      | Exec.Plan.Join { method_; _ } -> Some method_
      | n -> List.find_map find (Exec.Plan.children n)
    in
    find plan
  in
  Alcotest.(check bool) "big-big uses merge" true
    (join_method_of "SELECT BIG1.V FROM BIG1, BIG2 WHERE BIG1.K = BIG2.K"
    = Some Exec.Plan.Sort_merge);
  Alcotest.(check bool) "big-tiny uses nested loops" true
    (join_method_of "SELECT BIG1.V FROM BIG1, TINY WHERE BIG1.K = TINY.K"
    = Some Exec.Plan.Nested_loop)

let test_planner_uses_index () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:64 () in
  let catalog = Catalog.create pager in
  let mk n =
    Relation.of_values ~rel:"X"
      [ ("K", Value.Tint); ("V", Value.Tint) ]
      (List.init n (fun i -> [ Value.Int i; Value.Int (i * 2) ]))
  in
  Catalog.register_relation catalog "SMALL" (mk 5);
  Catalog.register_relation catalog "BIG" (mk 500);
  Catalog.create_index catalog "BIG" ~column:"K";
  let q =
    parse catalog "SELECT SMALL.V FROM SMALL, BIG WHERE SMALL.K = BIG.K"
  in
  let { Planner.plan; _ } = Planner.lower catalog q in
  let rec find = function
    | Exec.Plan.Join { method_; _ } -> Some method_
    | n -> List.find_map find (Exec.Plan.children n)
  in
  Alcotest.(check bool) "few probes into a big indexed table -> index join"
    true
    (find plan = Some Exec.Plan.Index_nl);
  (* and it computes the right answer *)
  let result = Exec.Plan.run catalog plan in
  let reference = Exec.Nested_iter.run catalog q in
  Alcotest.(check bool) "index plan matches reference" true
    (Relation.equal_bag reference result)

let test_restriction_after_outer_join_is_wrong () =
  (* §5.2: "the condition which applies to only one relation must be applied
     before the join is performed.  Otherwise the join would not contain the
     last row, and the result would be incorrect."  Build the wrong plan by
     hand — outer join first, date restriction after — and watch the COUNT
     for part 8 disappear. *)
  let catalog = F.parts_supply_catalog F.Count_bug in
  (* correct: TEMP2-style restriction below the outer join (this is what
     NEST-JA2 emits; validated elsewhere).  Wrong: filter above the join. *)
  let date_pred =
    Sql.Ast.Cmp
      ( Sql.Ast.Col { table = Some "SUPPLY"; column = "SHIPDATE" },
        Sql.Ast.Lt,
        Sql.Ast.Lit
          (Value.Date { Value.year = 1980; month = 1; day = 1 }) )
  in
  let join ~filtered_below =
    let right : Exec.Plan.node =
      if filtered_below then
        Exec.Plan.Filter ([ date_pred ], Exec.Plan.Scan "SUPPLY")
      else Exec.Plan.Scan "SUPPLY"
    in
    let joined =
      Exec.Plan.Join
        {
          method_ = Exec.Plan.Nested_loop;
          kind = Exec.Plan.Left_outer;
          cond =
            [ ( { Sql.Ast.table = Some "PARTS"; column = "PNUM" },
                Sql.Ast.Eq,
                { Sql.Ast.table = Some "SUPPLY"; column = "PNUM" } ) ];
          residual = [];
          left = Exec.Plan.Scan "PARTS";
          right;
        }
    in
    if filtered_below then joined else Exec.Plan.Filter ([ date_pred ], joined)
  in
  let count_of plan =
    Exec.Plan.run catalog
      (Exec.Plan.Group_agg
         {
           group_by = [ { Sql.Ast.table = Some "PARTS"; column = "PNUM" } ];
           aggs =
             [ { Exec.Plan.fn = Sql.Ast.Count (Sql.Ast.col ~table:"SUPPLY" "SHIPDATE");
                 out_name = "CT" } ];
           input = Exec.Plan.Sort ([ { Sql.Ast.table = Some "PARTS"; column = "PNUM" } ], plan);
         })
  in
  let good = count_of (join ~filtered_below:true) in
  let bad = count_of (join ~filtered_below:false) in
  (* good: parts 3->2, 8->0, 10->1.  bad: part 8 loses its padded row to the
     post-join filter (NULL date -> Unknown), so the group vanishes. *)
  Alcotest.(check int) "restriction below keeps all parts" 3
    (Relation.cardinality good);
  Alcotest.(check int) "restriction above loses the zero-count group" 2
    (Relation.cardinality bad)

let test_planner_distinct_group_by () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q = parse catalog "SELECT DISTINCT PNUM FROM SUPPLY" in
  let result = Exec.Plan.run catalog (Planner.lower catalog q).Planner.plan in
  Alcotest.(check (list int)) "distinct" [ 3; 8; 10 ] (ints result "PNUM");
  let q =
    parse catalog "SELECT PNUM, COUNT(SHIPDATE) FROM SUPPLY GROUP BY PNUM"
  in
  let result = Exec.Plan.run catalog (Planner.lower catalog q).Planner.plan in
  let reference = Exec.Nested_iter.run catalog q in
  Alcotest.(check bool) "group by matches reference" true
    (Relation.equal_bag reference result)

let test_planner_flat_queries_match_reference () =
  let catalog = F.kim_catalog () in
  let cases =
    [
      "SELECT SNAME FROM S WHERE STATUS > 15";
      "SELECT SNAME FROM S, SP WHERE S.SNO = SP.SNO AND QTY > 250";
      "SELECT S.SNO FROM S, SP, P WHERE S.SNO = SP.SNO AND SP.PNO = P.PNO \
       AND P.WEIGHT > 15";
      "SELECT DISTINCT ORIGIN FROM SP";
      "SELECT SNO, MAX(QTY) FROM SP GROUP BY SNO";
      "SELECT COUNT(QTY) FROM SP";
    ]
  in
  List.iter
    (fun text ->
      let q = parse catalog text in
      let reference = Exec.Nested_iter.run catalog q in
      let planned = Exec.Plan.run catalog (Planner.lower catalog q).Planner.plan in
      if not (Relation.equal_bag reference planned) then
        Alcotest.failf "planner differs for %s" text)
    cases

let test_plan_error_paths () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let expect_plan_error f =
    try
      ignore (f ());
      false
    with Exec.Plan.Plan_error _ -> true
  in
  (* nested predicate reaching the physical layer *)
  Alcotest.(check bool) "nested predicate rejected" true
    (expect_plan_error (fun () ->
         Exec.Plan.run catalog
           (Exec.Plan.Filter
              ( [ Sql.Ast.Exists
                    (Sql.Ast.query ~select:[ Sql.Ast.Sel_star ]
                       ~from:[ Sql.Ast.from "SUPPLY" ] ~where:[] ()) ],
                Exec.Plan.Scan "PARTS" ))));
  (* sort-merge without an equality condition *)
  Alcotest.(check bool) "merge without equality rejected" true
    (expect_plan_error (fun () ->
         Exec.Plan.run catalog
           (Exec.Plan.Join
              {
                method_ = Exec.Plan.Sort_merge;
                kind = Exec.Plan.Inner;
                cond =
                  [ ( Sql.Ast.col ~table:"PARTS" "PNUM",
                      Sql.Ast.Lt,
                      Sql.Ast.col ~table:"SUPPLY" "PNUM" ) ];
                residual = [];
                left = Exec.Plan.Scan "PARTS";
                right = Exec.Plan.Scan "SUPPLY";
              })));
  (* index join without an index: the probe has no B-tree to descend *)
  let index_join right cond =
    Exec.Plan.Join
      {
        method_ = Exec.Plan.Index_nl;
        kind = Exec.Plan.Inner;
        cond;
        residual = [];
        left = Exec.Plan.Scan "PARTS";
        right;
      }
  in
  let probe =
    Some (Sql.Ast.Col (Sql.Ast.col ~table:"PARTS" "PNUM"), true)
  in
  Alcotest.(check bool) "index join without index rejected" true
    (expect_plan_error (fun () ->
         Exec.Plan.run catalog
           (index_join
              (Exec.Plan.Index_scan
                 {
                   table = "SUPPLY";
                   alias = "SUPPLY";
                   column = "PNUM";
                   lo = probe;
                   hi = probe;
                 })
              [])));
  (* index join over a plain scan: the one form is a re-opened IndexScan *)
  let over_scan =
    index_join (Exec.Plan.Scan "SUPPLY")
      [
        ( Sql.Ast.col ~table:"PARTS" "PNUM",
          Sql.Ast.Eq,
          Sql.Ast.col ~table:"SUPPLY" "PNUM" );
      ]
  in
  Alcotest.(check bool) "index join over a scan rejected" true
    (expect_plan_error (fun () -> Exec.Plan.run catalog over_scan));
  Alcotest.(check (list string)) "index join over a scan: NQ115" [ "NQ115" ]
    (List.map
       (fun (d : Analysis.Diagnostics.t) -> d.code)
       (Analysis.Plan_check.check_catalog catalog over_scan));
  (* planner refuses a query that still nests *)
  Alcotest.(check bool) "planner refuses nested query" true
    (try
       ignore (Planner.lower catalog (parse catalog F.query_q2));
       false
     with Planner.Planning_error _ | Exec.Plan.Plan_error _ -> true)

let test_explain_runs () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q = parse catalog F.query_q2 in
  let program =
    Nest_g.transform ~fresh:(fun () -> Catalog.fresh_temp_name catalog) q
  in
  let text = Planner.explain catalog program in
  Alcotest.(check bool) "mentions temps" true
    (String.length text > 0
    && String.split_on_char '\n' text
       |> List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "temp"))

let suites =
  [
    ( "optimizer.classify",
      [
        Alcotest.test_case "paper examples" `Quick test_classify_paper_examples;
        Alcotest.test_case "flat query" `Quick test_classify_flat;
      ] );
    ( "optimizer.nest_n_j",
      [
        Alcotest.test_case "example 1" `Quick test_nest_nj_example1;
        Alcotest.test_case "alias conflicts" `Quick test_nest_nj_alias_conflict;
        Alcotest.test_case "merge_all siblings" `Quick test_nest_nj_merge_all;
        Alcotest.test_case "rejects aggregates" `Quick test_nest_nj_rejects_agg;
      ] );
    ( "optimizer.nest_ja_bugs",
      [
        Alcotest.test_case "COUNT bug reproduced (E3)" `Quick
          test_kim_ja_count_bug;
        Alcotest.test_case "non-equality bug reproduced (E4)" `Quick
          test_kim_ja_neq_bug;
      ] );
    ( "optimizer.nest_ja2",
      [
        Alcotest.test_case "fixes COUNT bug (E3)" `Quick
          test_ja2_fixes_count_bug;
        Alcotest.test_case "COUNT(*) conversion (§5.2.1)" `Quick
          test_ja2_count_star;
        Alcotest.test_case "fixes non-equality bug (E4)" `Quick
          test_ja2_fixes_neq_bug;
        Alcotest.test_case "fixes duplicates problem (E5)" `Quick
          test_ja2_fixes_duplicates;
        Alcotest.test_case "unprojected variant wrong (§5.4)" `Quick
          test_ja2_unprojected_variant_still_wrong;
        Alcotest.test_case "restriction before join (§5.2)" `Quick
          test_ja2_restriction_before_join;
        Alcotest.test_case "outer simple predicates (step 1)" `Quick
          test_ja2_outer_simple_predicates_restrict_temp1;
        Alcotest.test_case "multi-column correlation" `Quick
          test_ja2_multi_column_correlation;
      ] );
    ( "optimizer.extensions",
      [
        Alcotest.test_case "rewrite shapes" `Quick test_extension_rewrites_shapes;
        Alcotest.test_case "semantics preserved" `Quick test_extension_semantics;
        Alcotest.test_case "unsound-rule goldens (safe vs paper)" `Quick
          test_extension_unsound_rule_golden;
        Alcotest.test_case "= ALL unsupported" `Quick
          test_extension_eq_all_unsupported;
      ] );
    ( "optimizer.nest_g",
      [
        Alcotest.test_case "paper queries end to end" `Quick
          test_nest_g_paper_queries;
        Alcotest.test_case "two levels (N in J)" `Quick test_nest_g_two_levels;
        Alcotest.test_case "JA at depth" `Quick test_nest_g_ja_inside_j;
        Alcotest.test_case "trans-aggregate correlation" `Quick
          test_nest_g_trans_aggregate;
        Alcotest.test_case "safe vs paper semantics" `Quick
          test_nest_g_safe_vs_paper_semantics;
        Alcotest.test_case "figure 2 tree shape (E6)" `Quick
          test_nest_g_figure2_tree;
        Alcotest.test_case "NOT IN unsupported" `Quick
          test_nest_g_not_in_unsupported;
        Alcotest.test_case "NOT IN extension" `Quick test_nest_g_not_in_extension;
        Alcotest.test_case "join methods agree" `Quick test_force_methods_agree;
      ] );
    ( "optimizer.cost",
      [
        Alcotest.test_case "§7.4 example (E2)" `Quick test_cost_sect_7_4;
        Alcotest.test_case "figure 1 type-N (E1)" `Quick test_cost_figure1_type_n;
        Alcotest.test_case "monotonicity" `Quick test_cost_monotonic;
        Alcotest.test_case "80-95% savings shape" `Quick test_cost_savings_shape;
      ] );
    ( "optimizer.planner",
      [
        Alcotest.test_case "pushes restrictions" `Quick
          test_planner_pushes_restrictions;
        Alcotest.test_case "join method choice" `Quick
          test_planner_join_method_choice;
        Alcotest.test_case "distinct / group by" `Quick
          test_planner_distinct_group_by;
        Alcotest.test_case "index access path" `Quick test_planner_uses_index;
        Alcotest.test_case "restriction ordering (§5.2 warning)" `Quick
          test_restriction_after_outer_join_is_wrong;
        Alcotest.test_case "flat queries match reference" `Quick
          test_planner_flat_queries_match_reference;
        Alcotest.test_case "explain" `Quick test_explain_runs;
        Alcotest.test_case "error paths" `Quick test_plan_error_paths;
      ] );
  ]

(* Multi-level nesting, systematically.

   1. A Kiessling-Q3-style query: COUNT at the first level with another
      aggregate block nested below it — the case the paper says its outer-
      join solution "has been tested successfully on" ([KIE 84:6] is not
      reprinted, so the query here is reconstructed to that shape).
   2. A deterministic grid over two-level combinations: for every pair of
      (outer predicate form) x (inner block type), NEST-G must agree with
      nested iteration on both paper datasets. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module F = Workload.Fixtures
open Optimizer

let check_equivalence ?(compare_ = Relation.equal_set) catalog text =
  let q = F.parse_analyzed catalog text in
  let expected = Exec.Nested_iter.run catalog q in
  let program =
    Nest_g.transform ~fresh:(fun () -> Catalog.fresh_temp_name catalog) q
  in
  let got = Fixtures.run_verified catalog program in
  Planner.drop_temps catalog program;
  if not (compare_ expected got) then
    Alcotest.failf "mismatch for %s:@.expected:@.%a@.got:@.%a" text Relation.pp
      expected Relation.pp got

(* --- Q3-style: COUNT over a block that itself nests an aggregate -------- *)

let q3_style =
  "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
   WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80' AND QUAN = \
   (SELECT MAX(QUAN) FROM SUPPLY X WHERE X.PNUM = SUPPLY.PNUM))"

let test_q3_style_all_datasets () =
  List.iter
    (fun variant ->
      check_equivalence ~compare_:Relation.equal_bag
        (F.parts_supply_catalog variant)
        q3_style)
    [ F.Count_bug; F.Neq_bug; F.Duplicates ]

let test_q3_style_shape () =
  (* The transformation applies NEST-JA2 twice: once for the inner MAX
     (correlated on SUPPLY), once for the outer COUNT (correlated on
     PARTS). *)
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q = F.parse_analyzed catalog q3_style in
  let steps = ref [] in
  let program =
    Nest_g.transform
      ~on_step:(fun s -> steps := s :: !steps)
      ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
      q
  in
  let ja2_steps =
    List.filter
      (fun s ->
        let needle = "NEST-JA2" in
        let n = String.length needle in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = needle || go (i + 1))
        in
        go 0)
      !steps
  in
  Alcotest.(check int) "two NEST-JA2 applications" 2 (List.length ja2_steps);
  Alcotest.(check bool) "canonical" true (Program.is_fully_canonical program);
  (* COUNT level produces TEMP1/TEMP2/TEMP3, MAX level TEMP1/TEMP3: 5 temps *)
  Alcotest.(check int) "five temps" 5 (List.length program.Program.temps)

(* --- the two-level grid --------------------------------------------------- *)

(* Outer predicate forms around a hole for the inner block's extra
   predicate.  All are duplicate-insensitive at the point of merging (plain
   select or MAX/MIN), so Safe mode accepts every combination. *)
let outer_forms =
  [
    ( "IN",
      Printf.sprintf
        "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY WHERE \
         %s)" );
    ( "scalar MAX",
      Printf.sprintf
        "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN) FROM SUPPLY \
         WHERE %s)" );
    ( "correlated MAX",
      Printf.sprintf
        "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN) FROM SUPPLY \
         WHERE SUPPLY.PNUM = PARTS.PNUM AND %s)" );
  ]

(* Inner block forms: the predicate plugged into the hole. *)
let inner_forms =
  [
    ("type-N", "QUAN IN (SELECT QOH FROM PARTS P2 WHERE P2.QOH >= 1)");
    ("type-A", "QUAN >= (SELECT MIN(QOH) FROM PARTS P2)");
    ( "type-J",
      "QUAN IN (SELECT QOH FROM PARTS P2 WHERE P2.PNUM = SUPPLY.PNUM)" );
    ( "type-JA",
      "QUAN = (SELECT MAX(QUAN) FROM SUPPLY X WHERE X.PNUM = SUPPLY.PNUM)" );
  ]

let test_two_level_grid () =
  List.iter
    (fun variant ->
      List.iter
        (fun (_, outer) ->
          List.iter
            (fun (_, inner) ->
              check_equivalence
                (F.parts_supply_catalog variant)
                (outer inner))
            inner_forms)
        outer_forms)
    [ F.Count_bug; F.Neq_bug ]

(* Three levels: J wrapping J wrapping JA. *)
let test_three_levels () =
  let text =
    "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY WHERE \
     QUAN IN (SELECT QOH FROM PARTS P2 WHERE P2.PNUM = SUPPLY.PNUM AND \
     P2.QOH < (SELECT MAX(QUAN) FROM SUPPLY X WHERE X.PNUM = P2.PNUM)))"
  in
  List.iter
    (fun variant ->
      check_equivalence (F.parts_supply_catalog variant) text)
    [ F.Count_bug; F.Neq_bug; F.Duplicates ]

let suites =
  [
    ( "optimizer.multilevel",
      [
        Alcotest.test_case "Q3-style COUNT over nested aggregate" `Quick
          test_q3_style_all_datasets;
        Alcotest.test_case "Q3-style transformation shape" `Quick
          test_q3_style_shape;
        Alcotest.test_case "two-level grid (3x4x2 combinations)" `Quick
          test_two_level_grid;
        Alcotest.test_case "three levels" `Quick test_three_levels;
      ] );
  ]

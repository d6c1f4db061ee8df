(* Query-tree construction (§9 / Figure 2) and the NEST-G trace. *)

module Catalog = Storage.Catalog
module Relation = Relalg.Relation
module F = Workload.Fixtures
open Optimizer

let figure2_text =
  "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN) FROM SUPPLY WHERE \
   SUPPLY.QUAN IN (SELECT QUAN FROM SUPPLY C WHERE C.SHIPDATE IN (SELECT \
   SHIPDATE FROM SUPPLY E WHERE E.PNUM = PARTS.PNUM)))"

let test_tree_structure () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q = F.parse_analyzed catalog figure2_text in
  let tree = Query_tree.of_query q in
  Alcotest.(check int) "depth" 3 (Query_tree.depth tree);
  Alcotest.(check string) "root label" "A" tree.Query_tree.label;
  (match tree.Query_tree.children with
  | [ (Classify.Type_ja, b) ] -> (
      Alcotest.(check string) "B" "B" b.Query_tree.label;
      match b.Query_tree.children with
      | [ (Classify.Type_j, c) ] -> (
          match c.Query_tree.children with
          | [ (Classify.Type_j, d) ] ->
              Alcotest.(check string) "leaf label" "D" d.Query_tree.label;
              Alcotest.(check int) "leaf has no children" 0
                (List.length d.Query_tree.children)
          | _ -> Alcotest.fail "C children")
      | _ -> Alcotest.fail "B children")
  | _ -> Alcotest.fail "root children");
  Alcotest.(check int) "three edges" 3
    (List.length (Query_tree.edge_classes tree))

let test_tree_flat_query () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q = F.parse_analyzed catalog "SELECT PNUM FROM PARTS" in
  let tree = Query_tree.of_query q in
  Alcotest.(check int) "flat depth" 0 (Query_tree.depth tree);
  Alcotest.(check int) "no edges" 0 (List.length (Query_tree.edge_classes tree))

let test_tree_multiple_predicates () =
  let catalog = F.kim_catalog () in
  let q =
    F.parse_analyzed catalog
      "SELECT SNO FROM SP WHERE PNO IN (SELECT PNO FROM P) AND SNO IN \
       (SELECT SNO FROM S WHERE CITY = 'Paris')"
  in
  let tree = Query_tree.of_query q in
  Alcotest.(check int) "two children" 2 (List.length tree.Query_tree.children);
  let labels =
    List.map (fun (_, c) -> c.Query_tree.label) tree.Query_tree.children
  in
  Alcotest.(check (list string)) "sibling labels" [ "B"; "C" ] labels

let test_tree_rendering () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q = F.parse_analyzed catalog figure2_text in
  let text = Query_tree.to_string (Query_tree.of_query q) in
  List.iter
    (fun needle ->
      let found =
        let n = String.length needle in
        let rec go i =
          i + n <= String.length text
          && (String.sub text i n = needle || go (i + 1))
        in
        go 0
      in
      if not found then Alcotest.failf "rendering lacks %S:@.%s" needle text)
    [ "A: PARTS"; "[type-JA]"; "[type-J]"; "MAX(SUPPLY.QUAN)" ]

(* --- NEST-G traces ------------------------------------------------------- *)

let trace_of catalog text =
  let steps = ref [] in
  let q = F.parse_analyzed catalog text in
  let _ =
    Nest_g.transform
      ~on_step:(fun s -> steps := s :: !steps)
      ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
      q
  in
  List.rev !steps

let contains needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_trace_figure2_order () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let steps = trace_of catalog figure2_text in
  Alcotest.(check int) "three steps" 3 (List.length steps);
  (match steps with
  | [ s1; s2; s3 ] ->
      Alcotest.(check bool) "innermost merge first" true
        (contains "NEST-N-J" s1);
      Alcotest.(check bool) "second merge" true (contains "NEST-N-J" s2);
      Alcotest.(check bool) "JA2 last" true (contains "NEST-JA2" s3)
  | _ -> Alcotest.fail "steps");
  ()

let test_trace_extension_rewrite () =
  let catalog = F.kim_catalog () in
  let steps =
    trace_of catalog
      "SELECT SNAME FROM S WHERE EXISTS (SELECT SNO FROM SP WHERE SP.SNO = \
       S.SNO)"
  in
  Alcotest.(check bool) "sec. 8 rewrite traced" true
    (List.exists (contains "sec. 8") steps)

let test_trace_type_a () =
  let catalog = F.kim_catalog () in
  let steps = trace_of catalog F.example2 in
  Alcotest.(check bool) "type-A materialization traced" true
    (List.exists (contains "type-A") steps)

(* JA nested directly inside JA: two NEST-JA2 applications. *)
let test_nested_ja_in_ja () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let text =
    "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN) FROM SUPPLY WHERE \
     SUPPLY.PNUM = PARTS.PNUM AND QUAN = (SELECT MAX(QUAN) FROM SUPPLY X \
     WHERE X.PNUM = SUPPLY.PNUM))"
  in
  let q = F.parse_analyzed catalog text in
  let steps = ref [] in
  let program =
    Nest_g.transform
      ~on_step:(fun s -> steps := s :: !steps)
      ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
      q
  in
  Alcotest.(check int) "two JA2 applications" 2
    (List.length (List.filter (contains "NEST-JA2") !steps));
  let reference = Exec.Nested_iter.run catalog q in
  let result = Fixtures.run_verified catalog program in
  Alcotest.(check bool) "JA-in-JA matches reference" true
    (Relation.equal_set reference result)

let suites =
  [
    ( "optimizer.query_tree",
      [
        Alcotest.test_case "figure 2 structure" `Quick test_tree_structure;
        Alcotest.test_case "flat query" `Quick test_tree_flat_query;
        Alcotest.test_case "sibling predicates" `Quick
          test_tree_multiple_predicates;
        Alcotest.test_case "rendering" `Quick test_tree_rendering;
      ] );
    ( "optimizer.trace",
      [
        Alcotest.test_case "figure 2 postorder" `Quick test_trace_figure2_order;
        Alcotest.test_case "extension rewrite traced" `Quick
          test_trace_extension_rewrite;
        Alcotest.test_case "type-A traced" `Quick test_trace_type_a;
        Alcotest.test_case "JA inside JA" `Quick test_nested_ja_in_ja;
      ] );
  ]

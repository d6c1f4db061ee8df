(* Reference evaluator (nested iteration), physical operators, and the paged
   System R evaluator. *)

module Value = Relalg.Value
module Truth = Relalg.Truth
module Row = Relalg.Row
module Schema = Relalg.Schema
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module Pager = Storage.Pager
module F = Workload.Fixtures

let run catalog text =
  Exec.Nested_iter.run catalog (F.parse_analyzed catalog text)

let ints rel name =
  List.map
    (function Value.Int i -> i | v -> Alcotest.failf "not int: %a" Value.pp v)
    (Relation.column_values rel name)
  |> List.sort compare

let strs rel name =
  List.map
    (function Value.Str s -> s | v -> Alcotest.failf "not str: %a" Value.pp v)
    (Relation.column_values rel name)
  |> List.sort compare

(* --- Nested iteration: the paper's examples --------------------------- *)

let test_example1_type_n () =
  let catalog = F.kim_catalog () in
  Alcotest.(check (list string)) "suppliers of P2"
    [ "Blake"; "Clark"; "Jones"; "Smith" ]
    (strs (run catalog F.example1) "SNAME")

let test_example2_type_a () =
  let catalog = F.kim_catalog () in
  (* MAX(PNO) = 'P6', supplied by S1 only. *)
  Alcotest.(check (list string)) "suppliers of max part" [ "S1" ]
    (strs (run catalog F.example2) "SNO")

let test_example3_type_n () =
  let catalog = F.kim_catalog () in
  (* Parts heavier than 15: P2, P3, P6. *)
  let got = strs (run catalog F.example3) "SNO" in
  Alcotest.(check (list string)) "shipments of heavy parts"
    [ "S1"; "S1"; "S1"; "S2"; "S3"; "S4" ]
    got

let test_example4_type_j () =
  let catalog = F.kim_catalog () in
  (* Suppliers with a shipment of QTY > 100 originating in their own city. *)
  Alcotest.(check (list string)) "example 4"
    [ "Blake"; "Clark"; "Jones"; "Smith" ]
    (strs (run catalog F.example4) "SNAME")

let test_example5_type_ja () =
  let catalog = F.kim_catalog () in
  (* Parts whose PNO equals the max PNO shipped from their city. *)
  let got = strs (run catalog F.example5) "PNAME" in
  Alcotest.(check bool) "example 5 non-empty" true (got <> [])

let test_q2_count_bug_reference () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  Alcotest.(check (list int)) "paper: {10, 8}" [ 8; 10 ]
    (ints (run catalog F.query_q2) "PNUM")

let test_q2_count_star_reference () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  Alcotest.(check (list int)) "count(*) same as count(col) here" [ 8; 10 ]
    (ints (run catalog F.query_q2_count_star) "PNUM")

let test_q5_reference () =
  let catalog = F.parts_supply_catalog F.Neq_bug in
  Alcotest.(check (list int)) "paper: {8}" [ 8 ]
    (ints (run catalog F.query_q5) "PNUM")

let test_q2_duplicates_reference () =
  let catalog = F.parts_supply_catalog F.Duplicates in
  Alcotest.(check (list int)) "paper: {3, 10, 8}" [ 3; 8; 10 ]
    (ints (run catalog F.query_q2) "PNUM")

(* --- Nested iteration: semantics details ------------------------------- *)

let test_aggregate_empty_group () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let rel = run catalog "SELECT MAX(QUAN) FROM SUPPLY WHERE QUAN > 100" in
  Alcotest.(check bool) "MAX over empty is NULL" true
    (match Relation.rows rel with
    | [ r ] -> Value.is_null (Row.get r 0)
    | _ -> false);
  let rel = run catalog "SELECT COUNT(QUAN) FROM SUPPLY WHERE QUAN > 100" in
  Alcotest.(check bool) "COUNT over empty is 0" true
    (match Relation.rows rel with
    | [ r ] -> Value.equal (Row.get r 0) (Value.Int 0)
    | _ -> false)

let test_avg_sum () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let rel = run catalog "SELECT SUM(QUAN), AVG(QUAN) FROM SUPPLY" in
  match Relation.rows rel with
  | [ r ] ->
      Alcotest.(check bool) "sum" true (Value.equal (Row.get r 0) (Value.Int 14));
      Alcotest.(check bool) "avg" true
        (Value.equal (Row.get r 1) (Value.Float 2.8))
  | _ -> Alcotest.fail "single row expected"

let test_group_by_reference () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let rel =
    run catalog "SELECT PNUM, COUNT(SHIPDATE) FROM SUPPLY GROUP BY PNUM"
  in
  let pairs =
    List.map
      (fun r -> (Row.get r 0, Row.get r 1))
      (Relation.sorted_rows rel)
  in
  Alcotest.(check bool) "groups" true
    (pairs
    = [ (Value.Int 3, Value.Int 2); (Value.Int 8, Value.Int 1);
        (Value.Int 10, Value.Int 2) ])

let test_scalar_subquery_cardinality_error () =
  let catalog = F.kim_catalog () in
  Alcotest.(check bool) "scalar subquery with 2+ rows errors" true
    (try
       ignore (run catalog "SELECT SNO FROM S WHERE SNO = (SELECT SNO FROM SP)");
       false
     with Exec.Nested_iter.Runtime_error _ -> true)

let test_empty_scalar_subquery_is_null () =
  let catalog = F.kim_catalog () in
  let rel =
    run catalog
      "SELECT SNO FROM S WHERE SNO = (SELECT SNO FROM SP WHERE QTY > 9999)"
  in
  Alcotest.(check int) "no rows qualify via NULL" 0 (Relation.cardinality rel)

let test_exists_reference () =
  let catalog = F.kim_catalog () in
  let rel =
    run catalog
      "SELECT SNAME FROM S WHERE EXISTS (SELECT SNO FROM SP WHERE SP.SNO = \
       S.SNO)"
  in
  Alcotest.(check (list string)) "suppliers with shipments"
    [ "Blake"; "Clark"; "Jones"; "Smith" ]
    (strs rel "SNAME");
  let rel =
    run catalog
      "SELECT SNAME FROM S WHERE NOT EXISTS (SELECT SNO FROM SP WHERE SP.SNO \
       = S.SNO)"
  in
  Alcotest.(check (list string)) "suppliers without shipments" [ "Adams" ]
    (strs rel "SNAME")

let test_any_all_reference () =
  let catalog = F.kim_catalog () in
  let rel =
    run catalog "SELECT PNO FROM P WHERE WEIGHT >= ALL (SELECT WEIGHT FROM P)"
  in
  Alcotest.(check (list string)) "heaviest part" [ "P6" ] (strs rel "PNO");
  let rel =
    run catalog
      "SELECT PNO FROM P WHERE WEIGHT < ANY (SELECT WEIGHT FROM P X WHERE \
       X.CITY = P.CITY)"
  in
  (* parts lighter than some part in the same city *)
  Alcotest.(check (list string)) "correlated ANY" [ "P1"; "P4"; "P5" ]
    (strs rel "PNO")

let test_not_in_reference () =
  let catalog = F.kim_catalog () in
  let rel =
    run catalog "SELECT SNO FROM S WHERE SNO NOT IN (SELECT SNO FROM SP)"
  in
  Alcotest.(check (list string)) "not in" [ "S5" ] (strs rel "SNO")

(* --- Physical operators ------------------------------------------------- *)

let int2_schema rel =
  Schema.of_columns ~rel [ ("k", Value.Tint); ("v", Value.Tint) ]

let rel_of rel rows =
  Relation.make (int2_schema rel)
    (List.map (fun (k, v) -> Row.of_list [ Value.Int k; Value.Int v ]) rows)

let pairs_of it =
  List.map
    (fun r -> Row.to_list r)
    (Exec.Iterator.to_rows it)

(* Nested loops in memory, every left row against every right row: the
   reference the join algorithms are held to. *)
let nested_loops ?(outer_join = false) ~theta left right =
  let pad = Row.nulls (Schema.arity (Relation.schema right)) in
  Relation.make
    (Schema.append (Relation.schema left) (Relation.schema right))
    (List.concat_map
       (fun l ->
         match
           List.filter_map
             (fun r ->
               if theta l r = Truth.True then Some (Row.append l r) else None)
             (Relation.rows right)
         with
         | [] when outer_join -> [ Row.append l pad ]
         | matches -> matches)
       (Relation.rows left))

(* The executor's nested-loop join, inner and left outer, over stored L
   and R. *)
let test_nl_join_inner_vs_outer () =
  let left = rel_of "L" [ (1, 10); (2, 20); (3, 30) ] in
  let right = rel_of "R" [ (1, 100); (1, 101); (3, 300) ] in
  let run kind =
    let catalog = Catalog.create (Pager.create ~buffer_pages:4 ~page_bytes:64 ()) in
    Catalog.register_relation catalog "L" left;
    Catalog.register_relation catalog "R" right;
    let k rel = { Sql.Ast.table = Some rel; column = "k" } in
    Exec.Plan.run catalog
      (Exec.Plan.Join
         {
           method_ = Exec.Plan.Nested_loop;
           kind;
           cond = [ (k "L", Sql.Ast.Eq, k "R") ];
           residual = [];
           left = Exec.Plan.Scan "L";
           right = Exec.Plan.Scan "R";
         })
    |> Relation.rows |> List.map Row.to_list
  in
  Alcotest.(check int) "inner join rows" 3 (List.length (run Exec.Plan.Inner));
  let rows = run Exec.Plan.Left_outer in
  Alcotest.(check int) "outer join rows" 4 (List.length rows);
  let padded =
    List.filter (fun r -> List.exists Value.is_null r) rows
  in
  Alcotest.(check int) "one padded row" 1 (List.length padded);
  match padded with
  | [ [ Value.Int 2; Value.Int 20; Value.Null; Value.Null ] ] -> ()
  | _ -> Alcotest.fail "padded row shape"

let merge_join_result ?(outer = false) left_rows right_rows =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:64 () in
  ignore pager;
  let left = rel_of "L" left_rows and right = rel_of "R" right_rows in
  let sorted rel =
    Relation.make (Relation.schema rel) (Relation.sorted_rows rel)
  in
  Exec.Iterator.merge_join ~outer_join:outer ~left_key:[ 0 ] ~right_key:[ 0 ]
    (Exec.Iterator.of_relation (sorted left))
    (Exec.Iterator.of_relation (sorted right))
  |> pairs_of

let test_merge_join_basic () =
  let rows = merge_join_result [ (1, 10); (2, 20); (3, 30) ] [ (1, 100); (3, 300) ] in
  Alcotest.(check int) "matches" 2 (List.length rows)

let test_merge_join_many_to_many () =
  let rows =
    merge_join_result
      [ (1, 10); (1, 11); (2, 20) ]
      [ (1, 100); (1, 101); (2, 200) ]
  in
  Alcotest.(check int) "2x2 + 1" 5 (List.length rows)

let test_merge_join_outer_padding () =
  let rows =
    merge_join_result ~outer:true [ (1, 10); (2, 20) ] [ (1, 100) ]
  in
  Alcotest.(check int) "all left preserved" 2 (List.length rows);
  Alcotest.(check int) "one padded" 1
    (List.length (List.filter (fun r -> List.exists Value.is_null r) rows))

let test_merge_join_null_keys_never_match () =
  let pager = Pager.create () in
  ignore pager;
  let schema = int2_schema "L" in
  let l =
    Relation.make schema
      [ Row.of_list [ Value.Null; Value.Int 1 ]; Row.of_list [ Value.Int 1; Value.Int 2 ] ]
  in
  let r =
    Relation.make (int2_schema "R")
      [ Row.of_list [ Value.Null; Value.Int 9 ]; Row.of_list [ Value.Int 1; Value.Int 8 ] ]
  in
  let sorted rel = Relation.make (Relation.schema rel) (Relation.sorted_rows rel) in
  let inner =
    Exec.Iterator.merge_join ~left_key:[ 0 ] ~right_key:[ 0 ]
      (Exec.Iterator.of_relation (sorted l))
      (Exec.Iterator.of_relation (sorted r))
    |> pairs_of
  in
  Alcotest.(check int) "null keys don't join" 1 (List.length inner);
  let outer =
    Exec.Iterator.merge_join ~outer_join:true ~left_key:[ 0 ] ~right_key:[ 0 ]
      (Exec.Iterator.of_relation (sorted l))
      (Exec.Iterator.of_relation (sorted r))
    |> pairs_of
  in
  Alcotest.(check int) "outer pads null-key left row" 2 (List.length outer)

(* Data rows whose key equals [v]: an equality range probe, drained. *)
let eq_rows idx v =
  let next = Storage.Btree.range idx ~lo:(v, true) ~hi:(v, true) () in
  let rec drain () = match next () with Some r -> r :: drain () | None -> [] in
  drain ()

let test_index_join_matches_nl () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:64 () in
  let catalog = Catalog.create pager in
  Catalog.register_relation catalog "R"
    (rel_of "R" [ (1, 100); (1, 101); (3, 300) ]);
  Catalog.create_index catalog "R" ~column:"k";
  let idx = Option.get (Catalog.index_on catalog "R" ~key_col:0) in
  let left = rel_of "L" [ (1, 10); (2, 20); (3, 30) ] in
  let run ~outer =
    Exec.Iterator.index_nested_loop_join ~outer_join:outer
      ~probe:(fun l -> eq_rows idx (Relalg.Row.get l 0))
      ~right_schema:(Catalog.schema catalog "R")
      (Exec.Iterator.of_relation left)
    |> Exec.Iterator.to_rows
  in
  Alcotest.(check int) "inner matches" 3 (List.length (run ~outer:false));
  let outer_rows = run ~outer:true in
  Alcotest.(check int) "outer preserves left" 4 (List.length outer_rows);
  Alcotest.(check int) "one padded" 1
    (List.length
       (List.filter (fun r -> List.exists Value.is_null (Row.to_list r)) outer_rows))

(* Property: hash join = nested-loop join on random data (inner + outer). *)
let join_input_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 0 30) (pair (int_range 0 8) (int_range 0 50)))
      (list_size (int_range 0 30) (pair (int_range 0 8) (int_range 0 50))))

let prop_merge_equals_nl =
  QCheck2.Test.make ~name:"merge join = nested-loop join" ~count:100
    join_input_gen (fun (ls, rs) ->
      let left = rel_of "L" ls and right = rel_of "R" rs in
      let theta l r = Value.eq_sql (Row.get l 0) (Row.get r 0) in
      let nl = nested_loops ~theta left right in
      let mj_rows = merge_join_result ls rs in
      let mj =
        Relation.make (Relation.schema nl) (List.map Row.of_list mj_rows)
      in
      Relation.equal_bag nl mj)

(* Property: index join = nested-loop join on random data. *)
let prop_index_equals_nl =
  QCheck2.Test.make ~name:"index join = nested-loop join" ~count:100
    join_input_gen (fun (ls, rs) ->
      let pager = Pager.create ~buffer_pages:4 ~page_bytes:32 () in
      let catalog = Catalog.create pager in
      Catalog.register_relation catalog "R" (rel_of "R" rs);
      Catalog.create_index catalog "R" ~column:"k";
      let idx = Option.get (Catalog.index_on catalog "R" ~key_col:0) in
      let left = rel_of "L" ls in
      let theta l r = Value.eq_sql (Row.get l 0) (Row.get r 0) in
      let nl = nested_loops ~theta left (rel_of "R" rs) in
      let ix =
        Exec.Iterator.index_nested_loop_join
          ~probe:(fun l -> eq_rows idx (Relalg.Row.get l 0))
          ~right_schema:(Catalog.schema catalog "R")
          (Exec.Iterator.of_relation left)
        |> Exec.Iterator.to_relation
      in
      Relation.equal_bag nl ix)

let prop_hash_equals_nl =
  QCheck2.Test.make ~name:"hash join = nested-loop join (inner and outer)"
    ~count:100 join_input_gen (fun (ls, rs) ->
      let left = rel_of "L" ls and right = rel_of "R" rs in
      let theta l r = Value.eq_sql (Row.get l 0) (Row.get r 0) in
      let agree outer =
        let nl = nested_loops ~outer_join:outer ~theta left right in
        let h =
          Exec.Vec.hash_join ~outer_join:outer ~left_key:[ 0 ] ~right_key:[ 0 ]
            (Exec.Vec.of_tuple (Exec.Iterator.of_relation left))
            (Exec.Vec.of_tuple (Exec.Iterator.of_relation right))
          |> Exec.Vec.to_tuple |> Exec.Iterator.to_relation
        in
        Relation.equal_bag nl h
      in
      agree false && agree true)

let prop_outer_join_preserves_left =
  QCheck2.Test.make ~name:"left outer join preserves left multiplicity"
    ~count:100 join_input_gen (fun (ls, rs) ->
      let rows = merge_join_result ~outer:true ls rs in
      (* every left row appears at least once; unmatched exactly once *)
      List.length rows >= List.length ls
      && List.for_all
           (fun (k, v) ->
             List.exists
               (function
                 | Value.Int k' :: Value.Int v' :: _ -> k = k' && v = v'
                 | _ -> false)
               rows)
           ls)

let test_group_agg_sorted () =
  let input = rel_of "T" [ (1, 10); (1, 20); (2, 5); (3, 7) ] in
  let schema =
    Schema.make
      [
        { Schema.rel = "T"; name = "k"; ty = Value.Tint };
        { Schema.rel = "agg"; name = "SUM_v"; ty = Value.Tint };
        { Schema.rel = "agg"; name = "N"; ty = Value.Tint };
      ]
  in
  let it =
    Exec.Iterator.group_agg_sorted ~group_key:[ 0 ]
      ~aggs:
        [
          { Exec.Iterator.fn = Sql.Ast.Sum (Sql.Ast.col "v"); arg = Some 1 };
          { Exec.Iterator.fn = Sql.Ast.Count_star; arg = None };
        ]
      ~schema
      (Exec.Iterator.of_relation input)
  in
  let rows = pairs_of it in
  Alcotest.(check bool) "grouped sums" true
    (rows
    = [
        Value.[ Int 1; Int 30; Int 2 ];
        Value.[ Int 2; Int 5; Int 1 ];
        Value.[ Int 3; Int 7; Int 1 ];
      ])

let test_group_agg_global_empty () =
  let input = Relation.make (int2_schema "T") [] in
  let schema =
    Schema.make [ { Schema.rel = "agg"; name = "C"; ty = Value.Tint } ]
  in
  let it =
    Exec.Iterator.group_agg_sorted ~group_key:[]
      ~aggs:[ { Exec.Iterator.fn = Sql.Ast.Count_star; arg = None } ]
      ~schema
      (Exec.Iterator.of_relation input)
  in
  Alcotest.(check bool) "global count of empty input = 0" true
    (pairs_of it = [ [ Value.Int 0 ] ])

let test_group_agg_grouped_empty () =
  let input = Relation.make (int2_schema "T") [] in
  let schema =
    Schema.make
      [
        { Schema.rel = "T"; name = "k"; ty = Value.Tint };
        { Schema.rel = "agg"; name = "C"; ty = Value.Tint };
      ]
  in
  let it =
    Exec.Iterator.group_agg_sorted ~group_key:[ 0 ]
      ~aggs:[ { Exec.Iterator.fn = Sql.Ast.Count_star; arg = None } ]
      ~schema
      (Exec.Iterator.of_relation input)
  in
  Alcotest.(check bool) "no groups from empty input" true (pairs_of it = [])

let test_filter_distinct_project () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:32 () in
  let input = rel_of "T" [ (1, 10); (2, 10); (2, 10); (1, 99) ] in
  let filtered =
    Exec.Iterator.of_relation input
    |> Exec.Iterator.filter ~pred:(fun r ->
           Value.lt_sql (Row.get r 1) (Value.Int 50))
  in
  let projected =
    Exec.Iterator.of_rows
      (Schema.project (Relation.schema input) [ 1 ])
      (List.map
         (fun r -> Row.project_positions r [| 1 |])
         (Exec.Iterator.to_rows filtered))
  in
  let it =
    Exec.Iterator.sort_run pager ~dedup:Storage.External_sort.Drop_duplicates
      ~key:[ 0 ] projected
    |> Exec.Iterator.scan
  in
  Alcotest.(check bool) "filter+project+distinct" true
    (pairs_of it = [ [ Value.Int 10 ] ])

(* --- Paged System R evaluator ------------------------------------------- *)

let test_sysr_matches_reference () =
  let queries =
    [ F.example1; F.example2; F.example3; F.example4; F.example5 ]
  in
  List.iter
    (fun text ->
      let c1 = F.kim_catalog () in
      let c2 = F.kim_catalog () in
      let reference = run c1 text in
      let paged = Exec.Sysr_iteration.run c2 (F.parse_analyzed c2 text) in
      if not (Relation.equal_bag reference paged) then
        Alcotest.failf "sysr result differs for %s" text)
    queries;
  let c1 = F.parts_supply_catalog F.Count_bug in
  let c2 = F.parts_supply_catalog F.Count_bug in
  Alcotest.(check bool) "q2" true
    (Relation.equal_bag (run c1 F.query_q2)
       (Exec.Sysr_iteration.run c2 (F.parse_analyzed c2 F.query_q2)))

let test_sysr_correlated_costs_more () =
  (* The correlated inner block is re-scanned per outer tuple; the
     uncorrelated one is memoized.  Compare measured I/O. *)
  let c_corr = F.kim_catalog ~buffer_pages:2 ~page_bytes:32 () in
  let pager_corr = Catalog.pager c_corr in
  ignore (Exec.Sysr_iteration.run c_corr (F.parse_analyzed c_corr F.example4));
  let io_corr = Pager.total_io (Pager.stats pager_corr) in
  let c_unc = F.kim_catalog ~buffer_pages:2 ~page_bytes:32 () in
  let pager_unc = Catalog.pager c_unc in
  ignore (Exec.Sysr_iteration.run c_unc (F.parse_analyzed c_unc F.example1));
  let io_unc = Pager.total_io (Pager.stats pager_unc) in
  Alcotest.(check bool)
    (Printf.sprintf "correlated io %d > uncorrelated io %d" io_corr io_unc)
    true (io_corr > io_unc)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "exec.nested_iter.paper",
      [
        Alcotest.test_case "example 1 (type-N)" `Quick test_example1_type_n;
        Alcotest.test_case "example 2 (type-A)" `Quick test_example2_type_a;
        Alcotest.test_case "example 3 (type-N)" `Quick test_example3_type_n;
        Alcotest.test_case "example 4 (type-J)" `Quick test_example4_type_j;
        Alcotest.test_case "example 5 (type-JA)" `Quick test_example5_type_ja;
        Alcotest.test_case "Q2 reference result" `Quick
          test_q2_count_bug_reference;
        Alcotest.test_case "Q2 with COUNT(*)" `Quick
          test_q2_count_star_reference;
        Alcotest.test_case "Q5 reference result" `Quick test_q5_reference;
        Alcotest.test_case "Q2 with duplicates" `Quick
          test_q2_duplicates_reference;
      ] );
    ( "exec.nested_iter.semantics",
      [
        Alcotest.test_case "aggregates over empty" `Quick
          test_aggregate_empty_group;
        Alcotest.test_case "sum/avg" `Quick test_avg_sum;
        Alcotest.test_case "group by" `Quick test_group_by_reference;
        Alcotest.test_case "scalar subquery cardinality" `Quick
          test_scalar_subquery_cardinality_error;
        Alcotest.test_case "empty scalar subquery is NULL" `Quick
          test_empty_scalar_subquery_is_null;
        Alcotest.test_case "EXISTS / NOT EXISTS" `Quick test_exists_reference;
        Alcotest.test_case "ANY / ALL" `Quick test_any_all_reference;
        Alcotest.test_case "NOT IN" `Quick test_not_in_reference;
      ] );
    ( "exec.operators",
      [
        Alcotest.test_case "nested-loop inner/outer" `Quick
          test_nl_join_inner_vs_outer;
        Alcotest.test_case "merge join basic" `Quick test_merge_join_basic;
        Alcotest.test_case "merge join many-to-many" `Quick
          test_merge_join_many_to_many;
        Alcotest.test_case "merge join outer padding" `Quick
          test_merge_join_outer_padding;
        Alcotest.test_case "merge join null keys" `Quick
          test_merge_join_null_keys_never_match;
        Alcotest.test_case "index join inner/outer" `Quick
          test_index_join_matches_nl;
        Alcotest.test_case "group agg sorted" `Quick test_group_agg_sorted;
        Alcotest.test_case "group agg global empty" `Quick
          test_group_agg_global_empty;
        Alcotest.test_case "group agg grouped empty" `Quick
          test_group_agg_grouped_empty;
        Alcotest.test_case "filter/project/distinct" `Quick
          test_filter_distinct_project;
      ]
      @ qcheck
          [ prop_merge_equals_nl; prop_index_equals_nl; prop_hash_equals_nl;
            prop_outer_join_preserves_left ] );
    ( "exec.sysr_iteration",
      [
        Alcotest.test_case "matches reference" `Quick
          test_sysr_matches_reference;
        Alcotest.test_case "correlation costs I/O" `Quick
          test_sysr_correlated_costs_more;
      ] );
  ]

(* Exhaustive sweep of the type-JA specification space: every combination of
   aggregate function, outer comparison, correlation operator, inner date
   restriction and outer simple predicate, on fixed datasets chosen to
   include duplicates, empty groups and boundary values.

   480 combinations x 2 datasets, each checked three ways:
     transformed(auto) = nested iteration  (bag equality)
     transformed(forced NL) = transformed(forced merge)
   This is the deterministic complement of the randomized properties. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module G = Workload.Gen
module F = Workload.Fixtures

let aggs = [ "COUNT(SHIPDATE)"; "COUNT(*)"; "MAX(QUAN)"; "MIN(QUAN)"; "SUM(QUAN)" ]
let op0s = [ "="; "<"; ">="; "!=" ]
let corr_ops = [ "="; "<"; "<="; ">"; ">="; "!=" ]

let datasets =
  [
    ("kiessling", F.Count_bug);
    ("duplicates", F.Duplicates);
  ]

let specs =
  List.concat_map
    (fun agg ->
      List.concat_map
        (fun op0 ->
          List.concat_map
            (fun corr_op ->
              List.concat_map
                (fun with_inner_filter ->
                  List.map
                    (fun with_outer_filter ->
                      { G.agg; op0; corr_op; with_inner_filter;
                        with_outer_filter })
                    [ false; true ])
                [ false; true ])
            corr_ops)
        op0s)
    aggs

let run_case variant (spec : G.ja_spec) =
  let text = G.ja_query_of_spec spec in
  let catalog = F.parts_supply_catalog variant in
  let q = F.parse_analyzed catalog text in
  let expected = Exec.Nested_iter.run catalog q in
  let program =
    Optimizer.Nest_g.transform
      ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
      q
  in
  let check force =
    let got = Fixtures.run_verified ~force catalog program in
    Optimizer.Planner.drop_temps catalog program;
    if not (Relation.equal_bag expected got) then
      Alcotest.failf "mismatch for %s:@.expected:@.%a@.got:@.%a" text
        Relation.pp expected Relation.pp got
  in
  check Optimizer.Planner.Auto;
  check Optimizer.Planner.Force_nl;
  check Optimizer.Planner.Force_merge

let test_dataset variant () = List.iter (run_case variant) specs

let suites =
  [
    ( "optimizer.exhaustive_ja",
      List.map
        (fun (name, variant) ->
          Alcotest.test_case
            (Printf.sprintf "all %d JA specs on %s" (List.length specs) name)
            `Slow (test_dataset variant))
        datasets );
  ]

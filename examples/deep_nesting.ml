(* The recursive NEST-G procedure on a Figure-2-shaped query tree: four
   query blocks A → B → C → E where B aggregates and E holds a join
   predicate referencing A's relation — the "trans-aggregate" correlation
   that makes multi-level type-JA detection subtle (§9).

     dune exec examples/deep_nesting.exe *)

module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module F = Workload.Fixtures

(* Block A: PARTS.  Block B: MAX over SUPPLY.  Block C: SUPPLY again.
   Block E: SUPPLY with E.PNUM = PARTS.PNUM — the reference that spans
   blocks B and C up to A. *)
let figure2_query =
  "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN) FROM SUPPLY WHERE \
   SUPPLY.QUAN IN (SELECT QUAN FROM SUPPLY C WHERE C.SHIPDATE IN (SELECT \
   SHIPDATE FROM SUPPLY E WHERE E.PNUM = PARTS.PNUM)))"

let () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  Fmt.pr "query:@.  %s@." figure2_query;

  let q = F.parse_analyzed catalog figure2_query in
  Fmt.pr "@.query tree (cf. the paper's Figure 2):@.%a"
    Optimizer.Query_tree.pp
    (Optimizer.Query_tree.of_query q);
  Fmt.pr "@.nesting depth: %d@." (Sql.Ast.nesting_depth q);
  (match Optimizer.Classify.classify_query q with
  | Some c -> Fmt.pr "overall classification: %a@." Optimizer.Classify.pp c
  | None -> assert false);

  (* NEST-G: postorder recursion.  E merges into C (type-J), C into B
     (type-N at that level), and the inherited E-predicate turns B into a
     type-JA block transformed by NEST-JA2.  The on_step trace shows the
     order of events. *)
  let step_no = ref 0 in
  Fmt.pr "@.transformation trace:@.";
  let program =
    Optimizer.Nest_g.transform
      ~on_step:(fun s ->
        incr step_no;
        Fmt.pr "  %d. %s@." !step_no s)
      ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
      q
  in
  Fmt.pr "@.canonical program produced by NEST-G:@.%a@."
    Optimizer.Program.pp program;

  let reference = Exec.Nested_iter.run catalog q in
  let result = Optimizer.Planner.run_program catalog program in
  Fmt.pr "@.nested iteration:@.%a@." Relation.pp reference;
  Fmt.pr "@.transformed:@.%a@." Relation.pp result;
  assert (Relation.equal_set reference result);
  Fmt.pr "@.results agree.@.";
  Optimizer.Planner.drop_temps catalog program;

  (* And the physical side: the plans chosen for each step. *)
  Fmt.pr "@.physical plans:@.";
  List.iter
    (fun (s : Optimizer.Planner.explained) ->
      Fmt.pr "%s:@.%s@." s.seg_label s.seg_text)
    (Optimizer.Planner.explain_segments catalog
       (Optimizer.Planner.Program program))

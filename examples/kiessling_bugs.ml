(* The paper's §5, replayed: the COUNT bug, the non-equality-operator bug
   and the duplicates problem — each shown three ways: nested iteration
   (ground truth), Kim's NEST-JA (wrong), and NEST-JA2 (fixed), with the
   intermediate TEMP tables printed like the paper prints them.

     dune exec examples/kiessling_bugs.exe *)

module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module F = Workload.Fixtures

let rule title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

let show_table catalog name =
  Fmt.pr "@.%s:@.%a@." name Relation.pp (Catalog.relation catalog name)

let fresh_counter prefix =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s%d" prefix !n

(* Run one §5 scenario. *)
(* NEST-JA's or NEST-JA2's temps and rewritten query as one program. *)
let program temps main =
  { Optimizer.Program.temps; main; notes = []; probes = [] }

let scenario ~title ~variant ~query =
  rule title;
  let catalog = F.parts_supply_catalog variant in
  show_table catalog "PARTS";
  show_table catalog "SUPPLY";
  Fmt.pr "@.query:@.  %s@." query;
  let q = F.parse_analyzed catalog query in

  (* 1. ground truth *)
  let reference = Exec.Nested_iter.run catalog q in
  Fmt.pr "@.nested iteration (ground truth):@.%a@." Relation.pp reference;

  (* 2. Kim's NEST-JA *)
  let pred = List.hd q.Sql.Ast.where in
  let temp, rewritten = Optimizer.Nest_ja.transform q pred ~temp_name:"TEMPK" in
  let kim_result =
    Optimizer.Planner.run_program catalog (program [ temp ] rewritten)
  in
  Fmt.pr "@.Kim's NEST-JA temporary table:";
  show_table catalog "TEMPK";
  Fmt.pr "@.Kim's NEST-JA result:@.%a@." Relation.pp kim_result;
  let kim_ok = Relation.equal_set reference kim_result in
  Fmt.pr "@.NEST-JA %s@."
    (if kim_ok then "matches nested iteration (no bug on this instance)"
     else "DIFFERS from nested iteration  <-- the bug");
  Catalog.drop catalog "TEMPK";

  (* 3. NEST-JA2 *)
  let { Optimizer.Nest_ja2.temps; rewritten; _ } =
    Optimizer.Nest_ja2.transform q pred ~fresh:(fresh_counter "TEMP") ()
  in
  let ja2_result =
    Optimizer.Planner.run_program catalog (program temps rewritten)
  in
  Fmt.pr "@.NEST-JA2 temporary tables:";
  List.iter (fun { Optimizer.Program.name; _ } -> show_table catalog name) temps;
  Fmt.pr "@.NEST-JA2 result:@.%a@." Relation.pp ja2_result;
  assert (Relation.equal_bag reference ja2_result);
  Fmt.pr "@.NEST-JA2 matches nested iteration.@."

let () =
  scenario
    ~title:"5.1  The COUNT bug (Kiessling's query Q2)"
    ~variant:F.Count_bug ~query:F.query_q2;
  scenario
    ~title:"5.3  Relations other than equality (query Q5, '<' correlation)"
    ~variant:F.Neq_bug ~query:F.query_q5;
  scenario
    ~title:"5.4  Duplicates in the outer join column (Q2 on duplicated PARTS)"
    ~variant:F.Duplicates ~query:F.query_q2;
  rule "5.2.1  COUNT(*) is converted to COUNT(join column)";
  let catalog = F.parts_supply_catalog F.Count_bug in
  let q = F.parse_analyzed catalog F.query_q2_count_star in
  let reference = Exec.Nested_iter.run catalog q in
  let { Optimizer.Nest_ja2.temps; rewritten; _ } =
    Optimizer.Nest_ja2.transform q (List.hd q.Sql.Ast.where)
      ~fresh:(fresh_counter "TEMP") ()
  in
  let result =
    Optimizer.Planner.run_program catalog (program temps rewritten)
  in
  Fmt.pr "@.COUNT(*) query result (transformed):@.%a@." Relation.pp result;
  assert (Relation.equal_bag reference result);
  Fmt.pr "@.matches nested iteration.@."

(* Shared test fixtures: the Kiessling count-bug database loaded into a
   fresh [Core.db], used by the vectorized, server and batched suites so
   every suite exercises the same catalog (and the helpers live in one
   place instead of three). *)

module Relation = Relalg.Relation
module F = Workload.Fixtures

(* Define a stored table from an in-memory relation. *)
let define_fixture db name rel =
  Core.define_table db name
    (List.map
       (fun (c : Core.Schema.column) -> (c.Core.Schema.name, c.Core.Schema.ty))
       (Core.Schema.columns (Relation.schema rel)))
    (List.map Relalg.Row.to_list (Relation.rows rel))

(* A fresh database holding the Kiessling PARTS/SUPPLY tables (the
   count-bug fixture).  Tiny pages by default so paging paths are hit. *)
let count_bug_db ?(buffer_pages = 8) ?(page_bytes = 256) () =
  let db = Core.create_db ~buffer_pages ~page_bytes () in
  define_fixture db "PARTS" F.kiessling_parts;
  define_fixture db "SUPPLY" F.kiessling_supply;
  db

(* The canonical type-JA count-bug query (Kiessling's Q2). *)
let count_bug_query =
  "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
   WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80')"

(* A type-JA query over an inequality correlation (Kim's Q5 shape). *)
let max_quan_query =
  "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY WHERE \
   SUPPLY.PNUM < PARTS.PNUM)"

(* Run a transformed program the way [Core] does: structurally verified
   first (NQ900-NQ906), failing the test on any Error diagnostic. *)
let run_verified ?force ?mode ?check catalog program =
  let diags = Optimizer.Planner.verify_program catalog program in
  if Analysis.Diagnostics.has_errors diags then
    Alcotest.failf "transformed program failed verification:\n%s"
      (Analysis.Diagnostics.list_to_string diags);
  Optimizer.Planner.run_program ?force ?mode ?check catalog program

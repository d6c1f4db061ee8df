(* Presentation: how every strategy's result is delivered.  ORDER BY
   applies to the outermost result only (the analyzer rejects it in
   subqueries), so it is a final in-memory sort over the delivered relation
   rather than a plan operator. *)

module Value = Relalg.Value
module Schema = Relalg.Schema
module Row = Relalg.Row
module Relation = Relalg.Relation
open Sql.Ast

let apply_order (q : query) (rel : Relation.t) : Relation.t =
  match q.order_by with
  | [] -> rel
  | keys ->
      let schema = Relation.schema rel in
      let positions =
        List.map (fun ((c : col_ref), dir) -> (Schema.find schema c.column, dir)) keys
      in
      let compare_rows a b =
        let rec go = function
          | [] -> 0
          | (i, dir) :: rest ->
              let c = Value.compare (Row.get a i) (Row.get b i) in
              let c = match dir with Asc -> c | Desc -> -c in
              if c <> 0 then c else go rest
        in
        go positions
      in
      Relation.make schema (List.stable_sort compare_rows (Relation.rows rel))

(* A hash dedup keeps first-occurrence order, a sort-based one sorts: a
   DISTINCT result is listed sorted whichever plan deduplicated it. *)
let present catalog (q : query) (rel : Relation.t) : Relation.t =
  let schema =
    Sql.Analyzer.output_schema ~lookup:(Storage.Catalog.lookup catalog)
      ~rel:"result" q
  in
  let rel = Relation.make schema (Relation.rows rel) in
  apply_order q (if q.distinct then Relation.distinct rel else rel)

(* Kim's original algorithm NEST-JA (§3.2) — kept, bugs and all.

   The paper's §5 demonstrates two bugs in this algorithm (the COUNT bug and
   the non-equality-operator bug) plus the duplicates problem; reproducing
   the *wrong* answers it gives on Kiessling's examples is experiment E3-E5,
   so this module implements the algorithm exactly as published:

     1. build a temporary table by grouping the *inner* relation alone on
        its correlation columns and applying the aggregate — no join against
        the outer relation, hence no groups for outer values with no match
        (COUNT can never be 0) and groups keyed by inner value even when the
        correlation operator is a range comparison;
     2. rewrite the nested predicate to reference the temporary table,
        keeping the original correlation operators;
     3. hand the now type-J query to NEST-N-J. *)

open Sql.Ast

(* [transform q pred ~temp_name] returns the temp definition and the
   canonical rewritten query.  @raise Program.Refused on shape mismatch. *)
let transform (q : query) (pred : predicate) ~temp_name :
    Program.temp * query =
  let shape = Ja_shape.extract pred in
  (* Group by the *inner* correlation columns, in first-appearance order,
     deduplicated. *)
  let group_cols =
    List.fold_left
      (fun acc (c : Ja_shape.correlation) ->
        if List.exists (fun g -> g = c.inner) acc then acc else acc @ [ c.inner ])
      [] shape.correlations
  in
  let def =
    {
      distinct = false;
      select = List.map (fun c -> Sel_col c) group_cols @ [ Sel_agg shape.agg ];
      from = shape.sub.from;
      where = shape.local_preds;
      group_by = group_cols;
      order_by = [];
      span = no_span;
    }
  in
  let temp_col (c : col_ref) =
    { table = Some temp_name; column = item_output_name (Sel_col c) }
  in
  let agg_col =
    { table = Some temp_name;
      column = item_output_name (Sel_agg shape.agg) }
  in
  (* Step 2+3: nested predicate becomes a comparison against the temp's
     aggregate column; correlation predicates move to the outer block with
     inner columns replaced by temp columns and operators unchanged. *)
  let join_preds =
    List.map
      (fun (c : Ja_shape.correlation) ->
        Cmp (Col (temp_col c.inner), c.op, Col c.outer))
      shape.correlations
  in
  let where =
    List.concat_map
      (fun p ->
        if p == pred then Cmp (shape.x, shape.op0, Col agg_col) :: join_preds
        else [ p ])
      q.where
  in
  ( { Program.name = temp_name; def },
    { q with from = q.from @ [ from temp_name ]; where } )

(* Algorithm NEST-JA2 (§6 of the paper): the corrected type-JA
   transformation.

     1. TEMP1: project the correlation column(s) of the outer relation,
        DISTINCT (the §5.4 duplicates fix), restricted by the outer block's
        simple predicates.
     2. Build the aggregate temp table by *joining* the inner side with
        TEMP1 (the §5.3 fix: the group for an outer value aggregates over
        the proper range of inner tuples, whatever the comparison operator):
          - if the aggregate is COUNT, first restrict+project the inner side
            into TEMP2, then LEFT OUTER JOIN TEMP1 with TEMP2 (the §5.1/§5.2
            fix: unmatched outer values get a group whose COUNT is 0);
            COUNT(star) is converted to COUNT(inner join column) per §5.2.1;
          - otherwise join TEMP1 directly with the inner FROM under the
            inner block's local predicates.
        GROUP BY the TEMP1 columns; SELECT the TEMP1 columns and the
        aggregate.
        Beyond the paper, TEMP2 may instead be built from TEMP1's keys — an
        inner join of TEMP1 with the inner relation under the (all-[=])
        correlation predicates, which the planner lowers to an index
        nested-loop join when the inner relation has a B-tree on a
        correlated column.  TEMP1 is DISTINCT, so no inner row matches two
        TEMP1 rows and TEMP2 gains no duplicates; inner rows matching no key
        would have found no partner in TEMP3's outer join anyway.
     3. Rewrite the original query: the nested predicate becomes a scalar
        comparison against the temp's aggregate column, and the correlation
        predicates become *equality* joins between the outer relation and
        the temp table. *)

open Sql.Ast

type result = {
  temps : Program.temp list;
  rewritten : query;
  probe_note : string option;
  probe : Program.key_probe option;
}

(* Predicates of the outer block that restrict only [alias] (no subqueries,
   no other tables): usable to restrict TEMP1 per step 1. *)
let simple_preds_on (q : query) ~alias ~except =
  List.filter
    (fun p ->
      (not (p == except))
      &&
      match p with
      | Cmp (a, _, b) ->
          let tabs = Ja_shape.scalar_tables a @ Ja_shape.scalar_tables b in
          tabs <> [] && List.for_all (String.equal alias) tabs
      | _ -> false)
    q.where

(* [transform q pred ~fresh ?rel_of_alias] rewrites the type-JA nested
   predicate [pred] of [q].  [fresh] allocates temp-table names.
   [rel_of_alias] resolves the correlated alias to its base relation when it
   is bound by an *enclosing* block rather than [q] itself (the
   trans-aggregate case NEST-G creates); by default only [q]'s own FROM is
   consulted.  TEMP1 is restricted by [q]'s simple predicates only when [q]
   binds the alias — an enclosing block's restrictions are not visible here,
   and the restriction is an optimization, never needed for correctness.
   @raise Program.Refused when [pred] does not have the type-JA shape. *)
(* [project_outer:false] skips step 1's DISTINCT projection and joins the
   raw outer relation instead — the intermediate (still broken) §5.4 variant
   whose COUNT is inflated by duplicate outer join-column values.  Kept only
   to reproduce the paper's §5.4 table; defaults to [true]. *)
(* [probe_keys] asks whether TEMP2 should be built from TEMP1's keys by
   probing a correlated inner column; [Some why] says yes, with the reason
   reported in [probe_note].  It is consulted only for a COUNT block over
   one inner relation whose correlations are all [=], under
   [project_outer] (TEMP1's DISTINCT is what keeps the keyed TEMP2
   duplicate-free).  Absent, TEMP2 is the paper's. *)
let transform (q : query) (pred : predicate) ~(fresh : unit -> string)
    ?(rel_of_alias = fun (_ : string) -> None) ?(project_outer = true)
    ?(probe_keys = fun (_ : Program.key_probe) -> None) () : result =
  let shape = Ja_shape.extract pred in
  let outer_alias = shape.outer_alias in
  let locally_bound, outer_rel =
    match
      List.find_opt (fun f -> String.equal (from_alias f) outer_alias) q.from
    with
    | Some f -> (true, f.rel)
    | None -> (
        match rel_of_alias outer_alias with
        | Some rel -> (false, rel)
        | None ->
            Program.refuse
              "correlated relation %s is not bound by any enclosing block"
              outer_alias)
  in
  let outer_cols = Ja_shape.outer_columns shape in
  (* ---- step 1: TEMP1 ---- *)
  let temp1_name = fresh () in
  let temp1_def =
    {
      distinct = project_outer;
      select =
        List.map
          (fun c -> Sel_col { table = Some outer_alias; column = c })
          outer_cols;
      from = [ { rel = outer_rel; alias = Some outer_alias } ];
      where =
        (if locally_bound then simple_preds_on q ~alias:outer_alias ~except:pred
         else []);
      group_by = [];
      order_by = [];
      span = no_span;
    }
  in
  let temp1_col c = { table = Some temp1_name; column = c } in
  (* ---- step 2: the aggregate temp ---- *)
  let is_count = match shape.agg with Count_star | Count _ -> true | _ -> false in
  let probe =
    match shape.sub.from with
    | [ inner ]
      when is_count && project_outer
           && List.for_all
                (fun (c : Ja_shape.correlation) -> c.op = Eq)
                shape.correlations ->
        List.find_map
          (fun (c : Ja_shape.correlation) ->
            let kp : Program.key_probe =
              {
                outer_rel;
                outer_cols;
                inner_rel = inner.rel;
                inner_col = c.inner.column;
              }
            in
            Option.map (fun why -> (kp, why)) (probe_keys kp))
          shape.correlations
    | _ -> None
  in
  let temps, agg_def_from, agg_def_where, agg_item =
    if is_count then begin
      (* TEMP2: restriction and projection of the inner side. *)
      let temp2_name = fresh () in
      let count_arg_cols =
        match shape.agg with
        | Count c -> [ c ]
        | Count_star | Max _ | Min _ | Sum _ | Avg _ -> []
      in
      let temp2_cols =
        List.fold_left
          (fun acc (c : col_ref) ->
            if List.exists (fun c' -> c' = c) acc then acc else acc @ [ c ])
          []
          (List.map (fun (c : Ja_shape.correlation) -> c.inner)
             shape.correlations
          @ count_arg_cols)
      in
      let temp2_from, temp2_keys =
        match probe with
        | None -> (shape.sub.from, [])
        | Some _ ->
            ( from temp1_name :: shape.sub.from,
              List.map
                (fun (c : Ja_shape.correlation) ->
                  Cmp (Col c.inner, Eq, Col (temp1_col c.outer.column)))
                shape.correlations )
      in
      let temp2_def =
        {
          distinct = false;
          select = List.map (fun c -> Sel_col c) temp2_cols;
          from = temp2_from;
          where = shape.local_preds @ temp2_keys;
          group_by = [];
          order_by = [];
          span = no_span;
        }
      in
      let temp2_col (c : col_ref) =
        { table = Some temp2_name; column = item_output_name (Sel_col c) }
      in
      (* Outer join conditions: TEMP1 preserved on the left, so the stored
         orientation is [outer flip(op) inner]. *)
      let join_preds =
        List.map
          (fun (c : Ja_shape.correlation) ->
            Cmp_outer
              (Col (temp1_col c.outer.column), flip_cmp c.op,
               Col (temp2_col c.inner)))
          shape.correlations
      in
      (* §5.2.1: COUNT(star) counts the inner join column; COUNT(col) counts
         that column as projected into TEMP2. *)
      let counted =
        match shape.agg with
        | Count c -> temp2_col c
        | Count_star | Max _ | Min _ | Sum _ | Avg _ -> (
            match shape.correlations with
            | c :: _ -> temp2_col c.inner
            | [] -> assert false)
      in
      ( [ { Program.name = temp2_name; def = temp2_def } ],
        [ from temp1_name; from temp2_name ],
        join_preds,
        Count counted )
    end
    else
      (* Plain join of TEMP1 with the inner FROM; the paper's TEMP6 keeps
         the original [inner op outer] orientation. *)
      let join_preds =
        List.map
          (fun (c : Ja_shape.correlation) ->
            Cmp (Col c.inner, c.op, Col (temp1_col c.outer.column)))
          shape.correlations
      in
      ([], from temp1_name :: shape.sub.from,
       shape.local_preds @ join_preds, shape.agg)
  in
  let temp3_name = fresh () in
  let temp3_group = List.map temp1_col outer_cols in
  let temp3_def =
    {
      distinct = false;
      select =
        List.map (fun c -> Sel_col c) temp3_group @ [ Sel_agg agg_item ];
      from = agg_def_from;
      where = agg_def_where;
      group_by = temp3_group;
      order_by = [];
      span = no_span;
    }
  in
  (* ---- step 3: rewrite the original query ---- *)
  let temp3_col c = { table = Some temp3_name; column = c } in
  let agg_out = item_output_name (Sel_agg agg_item) in
  let equality_joins =
    (* Null-safe [<=>], not [=]: TEMP3 groups by the outer join columns
       *including* a NULL group (NULL is an ordinary grouping value), and an
       outer row whose join column is NULL must still find its zero-count
       group row.  Under strict [=] that row silently vanishes — the NULL
       variant of the very COUNT bug this algorithm exists to fix. *)
    List.map
      (fun c ->
        Cmp
          (Col { table = Some outer_alias; column = c }, Eq_null,
           Col (temp3_col c)))
      outer_cols
  in
  let where =
    List.concat_map
      (fun p ->
        if p == pred then
          Cmp (shape.x, shape.op0, Col (temp3_col agg_out)) :: equality_joins
        else [ p ])
      q.where
  in
  let rewritten = { q with from = q.from @ [ from temp3_name ]; where } in
  let probe_note =
    match (probe, temps) with
    | Some (kp, why), [ temp2 ] ->
        Some
          (Printf.sprintf "NEST-JA2: %s probes %s.%s with %s's keys (%s)"
             temp2.Program.name kp.inner_rel kp.inner_col temp1_name why)
    | _ -> None
  in
  {
    temps =
      [ { Program.name = temp1_name; def = temp1_def } ]
      @ temps
      @ [ { Program.name = temp3_name; def = temp3_def } ];
    rewritten;
    probe_note;
    probe = Option.map fst probe;
  }

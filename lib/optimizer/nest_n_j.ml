(* Algorithm NEST-N-J (Kim, via the paper §3.1).

   Transforms a type-N or type-J nested predicate by merging the inner query
   block into the outer one:

     1. combine the FROM clauses,
     2. AND together the WHERE clauses, replacing IS IN by =,
     3. retain the SELECT clause of the outer block.

   The inner block's bindings are renamed first when they collide with outer
   aliases (the paper leaves this implicit; it matters for self-joins like
   example (1) where SP appears in both blocks of a multi-level query).

   Known limitation, inherited from Kim's Lemma 1 and untouched by the
   paper: the join can change result *multiplicity* when several inner
   tuples match one outer tuple.  The optional [dedup] mode projects the
   inner block DISTINCT onto its referenced columns before merging, which
   restores bag correctness whenever the merged predicates only touch those
   columns — this is an extension, off by default, and surfaced as a temp
   table so the paper-style printout stays honest. *)

open Sql.Ast

let errf = Program.refuse

(* The column produced by the inner block, used as the join target. *)
let inner_select_col (sub : query) : col_ref =
  match sub.select with
  | [ Sel_col c ] -> c
  | [ Sel_agg _ ] ->
      errf "NEST-N-J applies to blocks without aggregates (use NEST-JA2)"
  | _ -> errf "inner block must select exactly one plain column"

(* Merge one nested predicate of [q].  [pred] must be a member of
   [q.where] of the form [x IN sub] or [x op sub] with non-aggregated
   [sub].  Returns [q] with [sub]'s FROM and WHERE folded in and the nested
   predicate replaced by an explicit join predicate. *)
let merge_predicate (q : query) (pred : predicate) : query =
  let x, op, sub =
    match pred with
    | In_subq (x, sub) -> (x, Eq, sub)
    | Cmp_subq (x, op, sub) -> (x, op, sub)
    | Not_in_subq _ ->
        errf "NOT IN is an anti-join; NEST-N-J does not apply"
    | Cmp _ | Cmp_outer _ | Exists _ | Not_exists _ | Quant _ ->
        errf "not a NEST-N-J-transformable nested predicate"
  in
  if select_has_agg sub then
    errf "NEST-N-J applies to blocks without aggregates (use NEST-JA2)";
  if sub.group_by <> [] then errf "inner block with GROUP BY is not supported";
  let taken = List.map from_alias q.from in
  let sub = Rename.avoid_aliases ~taken sub in
  let join_col = inner_select_col sub in
  let join_pred = Cmp (x, op, Col join_col) in
  let where =
    List.concat_map
      (fun p -> if p == pred then join_pred :: sub.where else [ p ])
      q.where
  in
  { q with from = q.from @ sub.from; where }

(* Merge every transformable nested predicate at the top level of [q]
   (type-N/J with respect to this block); inner blocks are assumed already
   canonical — the recursive driver NEST-G guarantees that. *)
let merge_all (q : query) : query =
  List.fold_left
    (fun q pred ->
      match pred with
      | In_subq (_, sub) | Cmp_subq (_, _, sub) when not (select_has_agg sub)
        ->
          (* Find the (physically identical) predicate in the current q. *)
          let target =
            List.find
              (fun p ->
                match p, pred with
                | In_subq (x, s), In_subq (x', s') -> x = x' && s == s'
                | Cmp_subq (x, op, s), Cmp_subq (x', op', s') ->
                    x = x' && op = op' && s == s'
                | _ -> false)
              q.where
          in
          merge_predicate q target
      | _ -> q)
    q q.where

(* ---------------- dedup extension ----------------------------------- *)

(* [merge_predicate_dedup] returns the rewritten query plus a temp table
   definition (DISTINCT projection of the inner block) that must be
   materialized first. *)
let merge_predicate_dedup (q : query) (pred : predicate) ~temp_name :
    query * Program.temp =
  let x, op, sub =
    match pred with
    | In_subq (x, sub) -> (x, Eq, sub)
    | Cmp_subq (x, op, sub) -> (x, op, sub)
    | _ -> errf "not a NEST-N-J-transformable nested predicate"
  in
  if select_has_agg sub then errf "aggregated inner block";
  if is_correlated sub then
    errf "dedup mode applies to uncorrelated (type-N) blocks only";
  let def = { sub with distinct = true } in
  let join_col = inner_select_col sub in
  let temp_col =
    { table = Some temp_name; column = item_output_name (Sel_col join_col) }
  in
  let join_pred = Cmp (x, op, Col temp_col) in
  let where =
    List.concat_map
      (fun p -> if p == pred then [ join_pred ] else [ p ])
      q.where
  in
  ( { q with from = q.from @ [ from temp_name ]; where },
    { Program.name = temp_name; def } )

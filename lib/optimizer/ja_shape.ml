(* Recognition of the type-JA shape both NEST-JA and NEST-JA2 operate on:

     SELECT ... FROM Ri ...
     WHERE x op0 (SELECT AGG(Rj.Cm)
                  FROM Rj ...
                  WHERE Rj.Cn1 op1 Ri.Cp1 AND ... AND local predicates)

   Extraction classifies the inner WHERE clause into *correlation
   predicates* (one side bound locally, the other referencing the single
   outer relation) and *local predicates* (everything bound locally — the
   paper's "simple predicates applying to the inner relation", which may
   themselves be join predicates when deeper blocks have been merged in by
   NEST-G).  Correlations are normalized to [inner op outer].

   Shapes the paper does not define are refused ([Program.Refused]):
   correlations against two different outer relations, predicates that
   reference only outer columns from inside the inner block (hoisting them
   would change COUNT-over-empty-group semantics), and aggregates whose
   argument is an outer column. *)

open Sql.Ast

let errf = Program.refuse

type correlation = { inner : col_ref; op : cmp; outer : col_ref }

type t = {
  x : scalar; (* left side of the nested predicate *)
  op0 : cmp; (* its comparison operator *)
  sub : query; (* the inner block *)
  agg : agg; (* the inner SELECT's aggregate *)
  outer_alias : string; (* the single correlated outer relation *)
  correlations : correlation list;
  local_preds : predicate list;
}

let scalar_tables = function
  | Col { table = Some t; _ } -> [ t ]
  | Col { table = None; _ } | Lit _ -> []

let extract (pred : predicate) : t =
  let x, op0, sub =
    match pred with
    | Cmp_subq (x, op0, sub) -> (x, op0, sub)
    | In_subq _ | Not_in_subq _ | Exists _ | Not_exists _ | Quant _ | Cmp _
    | Cmp_outer _ ->
        errf "type-JA predicate must be a scalar comparison with a subquery"
  in
  let agg =
    match sub.select with
    | [ Sel_agg a ] -> a
    | _ -> errf "inner SELECT must be a single aggregate"
  in
  if sub.group_by <> [] then errf "inner block must not have GROUP BY";
  if sub.distinct then errf "inner block must not be DISTINCT";
  let bound = List.map from_alias sub.from in
  let is_local alias = List.mem alias bound in
  (match agg_arg agg with
  | Some { table = Some t; _ } when not (is_local t) ->
      errf "aggregate over an outer column is not supported"
  | Some { table = None; _ } -> errf "inner block must be analyzed"
  | Some _ | None -> ());
  let classify_pred p =
    match p with
    | Cmp (a, op, b) -> (
        let a_tabs = scalar_tables a and b_tabs = scalar_tables b in
        let free_a = List.filter (fun t -> not (is_local t)) a_tabs
        and free_b = List.filter (fun t -> not (is_local t)) b_tabs in
        match free_a, free_b with
        | [], [] -> `Local p
        | [], out :: _ -> (
            (* local op outer: already normalized *)
            match a, b with
            | Col inner, Col outer -> `Correlation ({ inner; op; outer }, out)
            | _ -> errf "correlation predicate must compare two columns")
        | out :: _, [] -> (
            match a, b with
            | Col outer, Col inner ->
                `Correlation ({ inner; op = flip_cmp op; outer }, out)
            | _ -> errf "correlation predicate must compare two columns")
        | _ :: _, _ :: _ ->
            errf
              "predicate references only outer relations inside the inner \
               block")
    | Cmp_outer _ -> errf "unexpected outer-join predicate in a source query"
    | Cmp_subq _ | In_subq _ | Not_in_subq _ | Exists _ | Not_exists _
    | Quant _ ->
        errf "inner block still contains a nested predicate (run NEST-G)"
  in
  let correlations, local_preds, outer_aliases =
    List.fold_left
      (fun (cs, ls, outs) p ->
        match classify_pred p with
        | `Local p -> (cs, p :: ls, outs)
        | `Correlation (c, out) -> (c :: cs, ls, out :: outs))
      ([], [], []) sub.where
  in
  let correlations = List.rev correlations
  and local_preds = List.rev local_preds in
  let outer_alias =
    match List.sort_uniq String.compare outer_aliases with
    | [ alias ] -> alias
    | [] -> errf "inner block is not correlated (type-A, not type-JA)"
    | _ :: _ :: _ -> errf "correlations against several outer relations"
  in
  (* A predicate like [5 < Ri.Cp] hides among locals only if it references
     no table at all; literal-vs-literal is fine, but a correlation column
     must not appear there — checked above via free-table classification. *)
  { x; op0; sub; agg; outer_alias; correlations; local_preds }

(* Outer join columns, deduplicated, in first-appearance order. *)
let outer_columns t =
  List.fold_left
    (fun acc (c : correlation) ->
      if List.mem c.outer.column acc then acc else acc @ [ c.outer.column ])
    [] t.correlations

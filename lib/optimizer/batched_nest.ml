(* Batched nested execution — Guravannavar's "batched bindings" strategy,
   lowered to a physical plan.

   The middle path between nested iteration (one inner evaluation per outer
   tuple) and set-oriented unnesting (NEST-JA2, which refuses shapes it
   cannot prove sound): each block's FROM chain and subquery-free predicates
   go through the ordinary [Planner] lowering — restrictions pushed, join
   methods costed (or forced) — and a per-key [Apply] over
   that plan evaluates each WHERE subquery once per distinct correlation-key
   tuple (in key order, NULL keys sharing one tuple under the null-safe
   [Value.hash]/[Value.equal]), then filters the outer rows against the
   memoized answers.  Each inner block is lowered the same way, its
   correlation columns left as parameters the [Apply] binds, so nested
   nesting batches at every level.  The inner plan is chosen once, for an
   unknown binding, except where the value decides the access path: a
   range against a parameter on an indexed column probes or scans per
   binding, as the planner would for that literal.

   Sound by construction — each inner block sees exactly the bindings
   nested iteration would supply, NULL included — so it covers the Kim
   shapes the guarded rewrites refuse, without their guards. *)

module Schema = Relalg.Schema
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
open Sql.Ast

exception Unsupported of string

let errf fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

type result = { relation : Relation.t }

(* ------------------------------------------------------------------ *)
(* Correlation keys                                                    *)
(* ------------------------------------------------------------------ *)

(* The correlation columns of a subquery, refusing a free ref in SELECT /
   GROUP BY / an aggregate argument: the inner block's select list is
   computed from its own columns only. *)
let correlation_keys (sub : query) : col_ref list =
  match Sql.Ast.correlation_keys sub with
  | Ok keys -> keys
  | Error c ->
      errf "correlated column %s.%s outside a WHERE predicate"
        (Option.value c.table ~default:"?")
        c.column

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* The canonical outer block: the FROM chain and the subquery-free
   predicates, selecting every column of every alias (in FROM order), so
   the nested predicates and the select list can read any of them. *)
let outer_block catalog (q : query) : query =
  let simple =
    List.filter (fun p -> not (predicate_has_subquery p)) q.where
  in
  List.iter
    (function
      | Cmp_outer _ -> errf "outer-join predicate in a source query"
      | _ -> ())
    simple;
  let select =
    List.concat_map
      (fun f ->
        let alias = from_alias f in
        match Catalog.lookup catalog f.rel with
        | None -> errf "unknown relation %s" f.rel
        | Some schema ->
            List.map
              (fun (c : Schema.column) ->
                Sel_col { table = Some alias; column = c.name })
              (Schema.columns schema))
      q.from
  in
  {
    q with
    distinct = false;
    select;
    where = simple;
    group_by = [];
    order_by = [];
  }

(* A block: the planner's plan of its outer block, a per-key [Apply] of
   its nested predicates when it has any, then its select list. *)
let rec lower ?(force = Planner.Auto) ?(mode = Planner.Paper1987) catalog
    (q : query) : Exec.Plan.node =
  let { Planner.plan; _ } =
    Planner.lower ~force ~mode catalog (outer_block catalog q)
  in
  let subplan sub =
    let keys = correlation_keys sub in
    { Exec.Plan.keys; inner = lower ~force ~mode catalog sub }
  in
  let preds =
    List.filter_map
      (fun p ->
        Option.map (fun sub -> (p, Some (subplan sub))) (predicate_subquery p))
      q.where
  in
  Exec.Sysr_iteration.select_list q
    (if preds = [] then plan
     else Exec.Plan.Apply { mode = Exec.Plan.Per_key; preds; outer = plan })

let run ?force ?mode ?engine:(_ : Exec.Plan.engine option) ?session catalog
    (q : query) : result =
  let plan = lower ?force ?mode catalog q in
  {
    relation =
      Exec.Presentation.present catalog q
        (Planner.run_segments ?session catalog (Planner.Plan plan));
  }

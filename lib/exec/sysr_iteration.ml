(* Nested iteration — the System R strategy with honest page I/O — lowered
   to a physical plan.

   Each block becomes its FROM frames joined in FROM order: a frame
   rescans its stored heap once per assignment of the frames before it
   (a nested-loop join with a stored right side), or probes its B-tree
   where [probes] finds an equality to an already-bound value — a
   literal, an earlier frame's column, or an enclosing block's column,
   which the plan reads as a parameter.  A
   per-row [Apply] evaluates the whole WHERE conjunction on every
   assignment, re-opening a correlated subquery's plan under it — "tables
   referenced in the inner query block may have to be retrieved once for
   each tuple of the outer relation", the cost the paper attacks.  An
   uncorrelated value list (type-A and type-N inner blocks) is evaluated
   once, as System R does [SEL 79:33], but materialized to pages and
   re-read through the buffer pool by every probe, so a list that outgrows
   the pool costs f(i)·Ni·Px page fetches: Kim's type-N cost regime.  The
   select list is aggregated, projected and deduplicated in memory.

   [Nested_iter] is the in-memory semantic oracle this plan is checked
   against; it shares no code with it. *)

module Relation = Relalg.Relation
module Catalog = Storage.Catalog
open Sql.Ast

(* ------------------------------------------------------------------ *)
(* Index probes for the enumeration                                    *)
(* ------------------------------------------------------------------ *)

(* A frame can swap its full rescan for a B-tree probe when the WHERE
   conjunction contains [frame.col = rhs] with [col] indexed and [rhs]
   fully bound before the frame binds — a literal, or a column of an
   enclosing block / earlier frame.  This is exactly the access path the
   paper's §7 nested-iteration costs assume ("index on the join column"):
   a correlated inner block then probes once per outer tuple instead of
   rescanning its stored relation.

   Rows the probe skips are those where the equality is False or Unknown,
   which the conjunction at the innermost level would reject anyway — and
   a NULL rhs probes nothing, matching the predicate's Unknown on every
   row.  Shadowing is the one hazard (the predicate is re-evaluated after
   all frames bind), so probes are disabled entirely when frame aliases
   collide, and an rhs alias must not be rebound by a later frame. *)

let probes catalog ~outer_aliases (q : query) =
  let frame_aliases = List.map from_alias q.from in
  let rec go earlier = function
    | [] -> []
    | (f : from_item) :: rest ->
        let alias = from_alias f in
        let bound = function
          | Lit _ -> true
          | Col { table = Some t; _ } ->
              List.mem t earlier
              || (List.mem t outer_aliases && not (List.mem t frame_aliases))
          | Col _ -> false
        in
        let consider (c : col_ref) rhs =
          match Catalog.column_stats catalog f.rel c.column with
          | Some (key_col, _)
            when c.table = Some alias && bound rhs
                 && Catalog.index_on catalog f.rel ~key_col <> None ->
              Some (alias, c.column, rhs)
          | _ -> None
        in
        let probe =
          List.find_map
            (function
              | Cmp (Col c, Eq, rhs) -> (
                  match (consider c rhs, rhs) with
                  | None, Col c' -> consider c' (Col c)
                  | found, _ -> found)
              | Cmp (rhs, Eq, Col c) -> consider c rhs
              | _ -> None)
            q.where
        in
        Option.to_list probe @ go (alias :: earlier) rest
  in
  if List.length (List.sort_uniq compare frame_aliases) < List.length q.from
  then []
  else go [] q.from

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

(* The select list over a block's qualifying rows: hash aggregation (one
   global group without GROUP BY), projection in select order, hash
   dedup — all in memory.  Batched bindings shares it. *)
let select_list (q : query) (input : Plan.node) : Plan.node =
  let aggs, cols =
    Plan.select_aggs ~name:(fun i _ -> Printf.sprintf "agg%d" i) q.select
  in
  let grouped =
    if aggs = [] && q.group_by = [] then input
    else
      Plan.Hash_group_agg
        {
          group_by = q.group_by;
          aggs;
          input;
        }
  in
  let projected = Plan.Project (cols, grouped) in
  if q.distinct then Plan.Hash_distinct projected else projected

(* [scope]: the enclosing blocks' FROM aliases, innermost first. *)
let rec lower_block catalog ~scope (q : query) : Plan.node =
  let probes = probes catalog ~outer_aliases:scope q in
  let locals = List.map from_alias q.from in
  (* A frame's access path: its stored heap, or its B-tree probed by a
     literal or a column bound before it — an earlier frame's or an
     enclosing block's, read as a parameter (an [Index_scan]). *)
  let access (f : from_item) =
    let alias = from_alias f in
    match List.find_opt (fun (a, _, _) -> a = alias) probes with
    | None ->
        ( Plan.Nested_loop,
          if alias = f.rel then Plan.Scan f.rel
          else Plan.Rename (alias, Plan.Scan f.rel) )
    | Some (_, column, v) ->
        let b = Some (v, true) in
        ( Plan.Index_nl,
          Plan.Index_scan { table = f.rel; alias; column; lo = b; hi = b } )
  in
  let join left f =
    let method_, right = access f in
    Plan.Join
      { method_; kind = Plan.Inner; cond = []; residual = []; left; right }
  in
  let frames =
    match q.from with
    | [] -> raise (Plan.Plan_error (Unresolved "a block needs a FROM clause"))
    | first :: rest ->
        List.fold_left join (snd (access first)) rest
  in
  let subplan sub =
    let keys = List.map fst (free_col_refs sub) in
    let scope = if keys = [] then [] else List.rev_append locals scope in
    { Plan.keys; inner = lower_block catalog ~scope sub }
  in
  select_list q
    (if q.where = [] then frames
     else
       Plan.Apply
         {
           mode = Plan.Per_row;
           preds =
             List.map (fun p -> (p, Option.map subplan (predicate_subquery p)))
               q.where;
           outer = frames;
         })

let lower catalog q = lower_block catalog ~scope:[] q

let run catalog q =
  Presentation.present catalog q (Plan.run catalog (lower catalog q))

(* Scope / correlation graph of an analyzed query.

   Nodes are query blocks (the outermost block and every subquery), numbered
   in pre-order; edges record correlation: an inner block referencing a
   table alias bound by an enclosing block — the paper's "join predicate
   which references a relation of an outer query block".  Each edge keeps
   the referenced columns and the comparison operators they appear under,
   which is exactly what the lint pass needs to recognise the non-equality
   (sec. 5.3) and duplicate-join-column (sec. 5.4) situations.

   The graph is built from an *analyzed* query: every column reference
   carries the alias that binds it, so correlation detection is a pure
   scope-stack walk with no name resolution of its own. *)

module Ast = Sql.Ast

type use = {
  column : string; (* column of the outer alias that is referenced *)
  op : Ast.cmp option;
      (* comparison the reference appears under, when it is one side of a
         [Cmp]; [None] for references in SELECT/GROUP BY or non-comparison
         predicates *)
}

type edge = {
  inner : int; (* block doing the referencing *)
  outer : int; (* block binding the alias *)
  alias : string;
  uses : use list;
}

type node = {
  id : int;
  depth : int; (* 0 for the outermost block *)
  span : Ast.span;
  aliases : string list; (* FROM aliases this block binds *)
  context : string;
      (* how the block is introduced: "top-level", "= subquery",
         "IN subquery", "EXISTS subquery", ... *)
  block : Ast.query; (* the block itself, subqueries included *)
}

type t = { nodes : node list; edges : edge list }

let context_of_predicate (p : Ast.predicate) =
  match p with
  | Ast.Cmp_subq (_, op, _) -> Ast.cmp_name op ^ " subquery"
  | Ast.In_subq _ -> "IN subquery"
  | Ast.Not_in_subq _ -> "NOT IN subquery"
  | Ast.Exists _ -> "EXISTS subquery"
  | Ast.Not_exists _ -> "NOT EXISTS subquery"
  | Ast.Quant (_, op, Ast.Any, _) -> Ast.cmp_name op ^ " ANY subquery"
  | Ast.Quant (_, op, Ast.All, _) -> Ast.cmp_name op ^ " ALL subquery"
  | Ast.Cmp _ | Ast.Cmp_outer _ -> "predicate"

(* The column references a block makes *directly* (not through subqueries),
   each with the comparison operator it appears under, if any. *)
let direct_uses (q : Ast.query) : (Ast.col_ref * Ast.cmp option) list =
  let of_scalar op = function
    | Ast.Col c -> [ (c, op) ]
    | Ast.Lit _ -> []
  in
  let of_item = function
    | Ast.Sel_star -> []
    | Ast.Sel_col c -> [ (c, None) ]
    | Ast.Sel_agg a -> (
        match Ast.agg_arg a with None -> [] | Some c -> [ (c, None) ])
  in
  let of_pred = function
    | Ast.Cmp (a, op, b) | Ast.Cmp_outer (a, op, b) ->
        of_scalar (Some op) a @ of_scalar (Some op) b
    | Ast.Cmp_subq (a, op, _) -> of_scalar (Some op) a
    | Ast.Quant (a, op, _, _) -> of_scalar (Some op) a
    | Ast.In_subq (a, _) | Ast.Not_in_subq (a, _) -> of_scalar None a
    | Ast.Exists _ | Ast.Not_exists _ -> []
  in
  List.concat_map of_item q.Ast.select
  @ List.concat_map of_pred q.Ast.where
  @ List.map (fun c -> (c, None)) q.Ast.group_by
  @ List.map (fun ((c : Ast.col_ref), _) -> (c, None)) q.Ast.order_by

let build (q : Ast.query) : t =
  let next_id = ref 0 in
  let nodes = ref [] and edges = ref [] in
  (* [stack]: enclosing blocks, innermost first, as (id, aliases). *)
  let rec walk stack ~depth ~context (q : Ast.query) =
    let id = !next_id in
    incr next_id;
    let aliases = List.map Ast.from_alias q.Ast.from in
    nodes :=
      { id; depth; span = q.Ast.span; aliases; context; block = q } :: !nodes;
    (* Correlated references: the alias is not bound here, so it resolves in
       an enclosing block (the analyzer guarantees one exists). *)
    let stack' = (id, aliases) :: stack in
    let correlated =
      List.filter
        (fun ((c : Ast.col_ref), _) ->
          match c.Ast.table with
          | Some t -> not (List.mem t aliases)
          | None -> false)
        (direct_uses q)
    in
    List.iter
      (fun ((c : Ast.col_ref), op) ->
        let alias = Option.get c.Ast.table in
        match
          List.find_opt (fun (_, als) -> List.mem alias als) stack
        with
        | None -> () (* unanalyzed or unresolved reference: not our problem *)
        | Some (outer, _) ->
            let use = { column = c.Ast.column; op } in
            let key (e : edge) =
              e.inner = id && e.outer = outer && String.equal e.alias alias
            in
            edges :=
              (match List.partition key !edges with
              | [ e ], rest ->
                  (if List.mem use e.uses then e
                   else { e with uses = e.uses @ [ use ] })
                  :: rest
              | _, _ ->
                  { inner = id; outer; alias; uses = [ use ] } :: !edges))
      correlated;
    List.iter
      (fun p ->
        match p with
        | Ast.Cmp _ | Ast.Cmp_outer _ -> ()
        | Ast.Cmp_subq (_, _, sub)
        | Ast.In_subq (_, sub)
        | Ast.Not_in_subq (_, sub)
        | Ast.Exists sub
        | Ast.Not_exists sub
        | Ast.Quant (_, _, _, sub) ->
            walk stack' ~depth:(depth + 1)
              ~context:(context_of_predicate p) sub)
      q.Ast.where
  in
  walk [] ~depth:0 ~context:"top-level" q;
  {
    nodes = List.rev !nodes;
    edges = List.sort (fun a b -> compare (a.inner, a.outer) (b.inner, b.outer)) !edges;
  }

let node t id = List.find (fun n -> n.id = id) t.nodes

(* Edges leaving block [id]: its correlations to enclosing blocks. *)
let correlations_of t id = List.filter (fun e -> e.inner = id) t.edges

let is_correlated_block t id = correlations_of t id <> []

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_use ppf u =
  match u.op with
  | None -> Fmt.string ppf u.column
  | Some op -> Fmt.pf ppf "%s (%s)" u.column (Ast.cmp_name op)

let pp ppf t =
  List.iter
    (fun n ->
      Fmt.pf ppf "block %d (depth %d, %s, %a): FROM %a@." n.id n.depth
        n.context Ast.pp_span n.span
        Fmt.(list ~sep:comma string)
        n.aliases)
    t.nodes;
  List.iter
    (fun e ->
      Fmt.pf ppf "  block %d -> block %d via %s: %a@." e.inner e.outer e.alias
        Fmt.(list ~sep:comma pp_use)
        e.uses)
    t.edges

let to_string t = Fmt.str "%a" pp t

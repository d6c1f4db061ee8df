(* Paged nested-iteration evaluator: the System R strategy with honest page
   I/O.

   This is the cost side of [Nested_iter] (which is the in-memory semantic
   oracle).  FROM clauses scan heap files through the buffer pool; a
   *correlated* subquery is re-evaluated — re-scanning its stored relations —
   once per qualifying outer assignment, which is precisely the behaviour
   whose cost the paper attacks ("tables referenced in the inner query block
   may have to be retrieved once for each tuple of the outer relation").
   Uncorrelated subqueries (type-A and type-N inner blocks) are evaluated
   once, as System R does [SEL 79:33] — but the resulting value list X is
   *materialized to pages* and each outer tuple's membership probe re-scans
   it through the buffer pool, so a list that outgrows the pool costs
   f(i)·Ni·Px page fetches, which is Kim's type-N cost regime. *)

module Value = Relalg.Value
module Truth = Relalg.Truth
module Schema = Relalg.Schema
module Row = Relalg.Row
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module Heap_file = Storage.Heap_file
open Sql.Ast

(* Uncorrelated subquery results, materialized ("the list of values X"). *)
type memo = (query * Heap_file.t) list ref

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

type probe = {
  p_column : string; (* indexed column on the frame's relation *)
  p_rhs : scalar; (* bound before the frame binds *)
}

let frame_probes catalog ~outer_aliases (q : query) :
    (string * probe) list =
  let frame_aliases = List.map from_alias q.from in
  let distinct_aliases =
    List.length (List.sort_uniq String.compare frame_aliases)
    = List.length frame_aliases
  in
  if not distinct_aliases then []
  else
    let rec go earlier = function
      | [] -> []
      | (f : from_item) :: rest ->
          let alias = from_alias f in
          let bound (c : col_ref) =
            match c.table with
            | Some t ->
                List.mem t earlier
                || (List.mem t outer_aliases
                   && not (List.mem t frame_aliases))
            | None -> false
          in
          let consider (c : col_ref) rhs =
            let rhs_ok =
              match rhs with Lit _ -> true | Col c' -> bound c'
            in
            if c.table <> Some alias || not rhs_ok then None
            else
              match Catalog.column_stats catalog f.rel c.column with
              | Some (key_col, _)
                when Catalog.index_on catalog f.rel ~key_col <> None ->
                  Some { p_column = c.column; p_rhs = rhs }
              | _ -> None
          in
          let probe =
            List.find_map
              (fun p ->
                match p with
                | Cmp (a, Eq, b) -> (
                    match (a, b) with
                    | Col c, rhs -> (
                        match consider c rhs with
                        | Some pr -> Some pr
                        | None -> (
                            match rhs with
                            | Col c' -> consider c' a
                            | Lit _ -> None))
                    | rhs, Col c -> consider c rhs
                    | Lit _, Lit _ -> None)
                | _ -> None)
              q.where
          in
          (match probe with Some pr -> [ (alias, pr) ] | None -> [])
          @ go (alias :: earlier) rest
    in
    go [] q.from

let probes catalog ~outer_aliases q =
  List.map
    (fun (alias, pr) -> (alias, pr.p_column, pr.p_rhs))
    (frame_probes catalog ~outer_aliases q)

let rec eval_query (catalog : Catalog.t) (memo : memo) (env : Env.t)
    (q : query) : Relation.t =
  let outer_aliases = List.map (fun (b : Env.binding) -> b.Env.alias) env in
  let probe_of = frame_probes catalog ~outer_aliases q in
  let frames =
    List.map
      (fun (f : from_item) ->
        let alias = from_alias f in
        let heap = Catalog.heap catalog f.rel in
        let index =
          match List.assoc_opt alias probe_of with
          | None -> None
          | Some pr -> (
              match Catalog.column_stats catalog f.rel pr.p_column with
              | None -> None
              | Some (key_col, _) ->
                  Option.map
                    (fun idx -> (idx, pr.p_rhs))
                    (Catalog.index_on catalog f.rel ~key_col))
        in
        (alias, Schema.rename_rel (Heap_file.schema heap) alias, heap, index))
      q.from
  in
  (* Nested scans over the stored FROM relations; each level re-scans its
     heap once per assignment of the levels above (page reads counted) —
     unless an index probe applies, in which case the level fetches only
     the matching rows through the pool. *)
  let qualifying = ref [] in
  let rec enumerate env' = function
    | [] -> (
        match
          Truth.conjunction (List.map (eval_predicate catalog memo env') q.where)
        with
        | Truth.True -> qualifying := env' :: !qualifying
        | Truth.False | Truth.Unknown -> ())
    | (alias, schema, heap, probe) :: rest -> (
        match probe with
        | Some (idx, rhs) ->
            let v = Eval.scalar env' rhs in
            List.iter
              (fun row -> enumerate (Env.bind env' ~alias ~schema ~row) rest)
              (Storage.Btree.lookup_eq idx v)
        | None ->
            let next = Heap_file.scan heap in
            let rec loop () =
              match next () with
              | Some row ->
                  enumerate (Env.bind env' ~alias ~schema ~row) rest;
                  loop ()
              | None -> ()
            in
            loop ())
  in
  enumerate env frames;
  let qualifying = List.rev !qualifying in
  let rows = Nested_iter.eval_select ~qualifying q in
  let schema =
    Sql.Analyzer.output_schema ~lookup:(Catalog.lookup catalog) ~rel:"result" q
  in
  let rel = Relation.make schema rows in
  if q.distinct then Relation.distinct rel else rel

and subquery_column catalog memo env (sub : query) : Value.t list =
  if is_correlated sub then column_of (eval_query catalog memo env sub)
  else
    let stored =
      match List.assoc_opt sub !memo with
      | Some heap -> heap
      | None ->
          let rel = eval_query catalog memo Env.empty sub in
          if Schema.arity (Relation.schema rel) <> 1 then
            raise
              (Nested_iter.Runtime_error "subquery must return a single column");
          let heap = Heap_file.of_relation (Catalog.pager catalog) rel in
          memo := (sub, heap) :: !memo;
          heap
    in
    (* Each probe walks the stored list through the buffer pool. *)
    let next = Heap_file.scan stored in
    let rec collect acc =
      match next () with
      | Some row -> collect (Row.get row 0 :: acc)
      | None -> List.rev acc
    in
    collect []

and column_of rel =
  if Schema.arity (Relation.schema rel) <> 1 then
    raise (Nested_iter.Runtime_error "subquery must return a single column");
  Relation.single_column rel

and eval_predicate catalog memo (env : Env.t) (p : predicate) : Truth.t =
  match p with
  | Cmp (a, op, b) -> Eval.cmp_values op (Eval.scalar env a) (Eval.scalar env b)
  | Cmp_outer _ ->
      raise
        (Nested_iter.Runtime_error
           "outer-join predicate is not valid in a source query")
  | Cmp_subq (a, op, sub) -> (
      let x = Eval.scalar env a in
      match subquery_column catalog memo env sub with
      | [] -> Eval.cmp_values op x Value.Null
      | [ v ] -> Eval.cmp_values op x v
      | _ :: _ :: _ ->
          raise
            (Nested_iter.Runtime_error
               "scalar subquery returned more than one row"))
  | In_subq (a, sub) ->
      Eval.in_values (Eval.scalar env a) (subquery_column catalog memo env sub)
  | Not_in_subq (a, sub) ->
      Truth.not_
        (Eval.in_values (Eval.scalar env a)
           (subquery_column catalog memo env sub))
  | Exists sub ->
      Truth.of_bool (subquery_nonempty catalog memo env sub)
  | Not_exists sub ->
      Truth.of_bool (not (subquery_nonempty catalog memo env sub))
  | Quant (a, op, qf, sub) ->
      Eval.quant_values op qf (Eval.scalar env a)
        (subquery_column catalog memo env sub)

and subquery_nonempty catalog memo env sub =
  not (Relation.is_empty (eval_query catalog memo env sub))

let run (catalog : Catalog.t) (q : query) : Relation.t =
  let memo = ref [] in
  let result = eval_query catalog memo Env.empty q in
  List.iter (fun (_, heap) -> Heap_file.delete heap) !memo;
  Presentation.apply_order q result

(* Typed validation of physical plans.

   The executor's compile step ([Exec.Plan.check]) states the plan
   contract: every table, column and parameter resolves, every predicate
   compiles where it stands, a value subquery yields one column, a grouped
   node's aggregates are named apart, and every join method and index scan
   has what it needs.  A plan that fails it draws exactly one diagnostic
   carrying the compiler's message: NQ110 when something does not resolve
   or compile, NQ115 when an operator's method contract is broken.

   Only a plan that compiles gets this module's own walk, which checks what
   compilation cannot see: comparison typing (NQ111) and the paper's
   plan-level rule (NQ112).  It resolves every position as the compiler
   does ([Exec.Plan.find_col], [Exec.Plan.param]) and keeps a two-point
   nullability per column: a left outer join makes every padded-side
   column nullable, a strict (non-[<=>]) comparison makes its operands
   non-null downstream (rows where they are NULL evaluate Unknown and are
   dropped), and COUNT is never NULL.  NEST-JA2's temp-3 shape — COUNT
   over the null-padded inner column of a preserving join — type-checks;
   Kim's NEST-JA shape with a COUNT over a column padding can never reach
   is exactly what NQ112 rejects. *)

module Ast = Sql.Ast
module Plan = Exec.Plan
module Schema = Relalg.Schema
module Value = Relalg.Value
module Catalog = Storage.Catalog

type state = {
  catalog : Catalog.t;
  mutable diags : Diagnostics.t list;
  mutable scope : (Schema.t * Schema.t) list;
      (* the enclosing re-opening operators' input schemas, innermost
         first, each tagged with itself: what a parameter reads *)
}

let emit st ?hint code fmt =
  Fmt.kstr
    (fun message ->
      st.diags <-
        Diagnostics.make ?hint code Ast.no_span "%s" message :: st.diags)
    fmt

(* What [walk] knows about a node's output: its schema, which of its
   columns may be NULL, and whether a preserving join's padding can reach
   its rows. *)
type info = { schema : Schema.t; nullable : bool list; padded : bool }

let ty schema i = (Schema.column schema i).Schema.ty

let non_null positions nullable =
  List.mapi (fun i n -> n && not (List.mem i positions)) nullable

(* [f ()] with [schema] the innermost enclosing row: a plan re-opened under
   each row of [schema] reads it as parameters. *)
let with_bound st schema f =
  let saved = st.scope in
  st.scope <- (schema, schema) :: saved;
  let r = f () in
  st.scope <- saved;
  r

(* A scalar operand's type, and its position when it is a column of the
   row rather than a parameter. *)
let operand st schema = function
  | Ast.Lit v -> (Value.type_of v, None)
  | Ast.Col c -> (
      match Plan.param st.scope schema c with
      | Some (bound, i) -> (Some (ty bound i), None)
      | None ->
          let i = Plan.find_col schema c in
          (Some (ty schema i), Some i))

(* Type one comparison of a filter, a residual or an [Apply]; returns the
   positions of strictly compared columns (refinable to non-null). *)
let check_predicate st ~at schema (p : Ast.predicate) : int list =
  match p with
  | Ast.Cmp (a, op, b) ->
      let ta, ia = operand st schema a and tb, ib = operand st schema b in
      (match (ta, tb) with
      | Some ta, Some tb when not (Value.comparable_ty ta tb) ->
          emit st "NQ111" "%s: %a compares %s against %s" at
            Sql.Pp.pp_predicate p (Value.type_name ta) (Value.type_name tb)
      | _ -> ());
      if op = Ast.Eq_null then [] else List.filter_map Fun.id [ ia; ib ]
  | _ -> [] (* compilation admits only comparisons here *)

let rec walk st (node : Plan.node) : info =
  let label = Plan.label node in
  let schema = Plan.output_schema st.catalog node in
  let stored table ~except =
    List.mapi
      (fun i (c : Schema.column) ->
        i <> except && Catalog.column_nullable st.catalog ~rel:table c.name)
      (Schema.columns schema)
  in
  match node with
  | Plan.Scan name ->
      { schema; nullable = stored name ~except:(-1); padded = false }
  | Plan.Index_scan { table; column; lo; hi; _ } ->
      (* the tree stores no NULL key, and a bound compares strictly *)
      let key = Plan.find_col schema (Ast.col column) in
      List.iter
        (function
          | Some (bound, _) -> (
              match operand st (Schema.make []) bound with
              | Some tb, _ when not (Value.comparable_ty tb (ty schema key)) ->
                  emit st "NQ111" "%s: bound compares %s against %s" label
                    (Value.type_name tb)
                    (Value.type_name (ty schema key))
              | _ -> ())
          | None -> ())
        [ lo; hi ];
      { schema; nullable = stored table ~except:key; padded = false }
  | Plan.Rename (_, input) -> { (walk st input) with schema }
  | Plan.Filter (preds, input) ->
      let i = walk st input in
      let strict =
        List.concat_map (check_predicate st ~at:label schema) preds
      in
      { i with nullable = non_null strict i.nullable }
  | Plan.Project (refs, input) ->
      let i = walk st input in
      {
        i with
        schema;
        nullable =
          List.map
            (fun c -> List.nth i.nullable (Plan.find_col i.schema c))
            refs;
      }
  | Plan.Distinct input | Plan.Hash_distinct input | Plan.Sort (_, input) ->
      walk st input
  | Plan.Join { method_; kind; cond; residual; left; right } ->
      let li = walk st left in
      let ri =
        if method_ = Plan.Index_nl then
          with_bound st li.schema (fun () -> walk st right)
        else walk st right
      in
      (* a condition's left column resolves on the left, its right column
         on the right *)
      let strict_l, strict_r =
        List.fold_left
          (fun (sl, sr) ((lc : Ast.col_ref), op, (rc : Ast.col_ref)) ->
            let l = Plan.find_col li.schema lc
            and r = Plan.find_col ri.schema rc in
            let ta = ty li.schema l and tb = ty ri.schema r in
            if not (Value.comparable_ty ta tb) then
              emit st "NQ111" "%s: condition %a %s %a compares %s against %s"
                label Sql.Pp.pp_col lc (Ast.cmp_name op) Sql.Pp.pp_col rc
                (Value.type_name ta) (Value.type_name tb);
            if op = Ast.Eq_null then (sl, sr) else (l :: sl, r :: sr))
          ([], []) cond
      in
      (* an index join's probe reads left columns, strictly: a NULL key
         probes nothing *)
      let strict_l =
        match right with
        | Plan.Index_scan { lo; hi; _ } when method_ = Plan.Index_nl ->
            List.filter_map
              (function
                | Some (Ast.Col c, _) ->
                    Option.map snd
                      (Plan.param [ (li.schema, ()) ] (Schema.make []) c)
                | _ -> None)
              [ lo; hi ]
            @ strict_l
        | _ -> strict_l
      in
      (* Inner joins refine strictly compared columns; a preserving join
         instead pads every right-side column for unmatched left rows,
         and padded rows bypass the residual, which refines nothing. *)
      let nullable =
        match kind with
        | Plan.Inner ->
            non_null strict_l li.nullable @ non_null strict_r ri.nullable
        | Plan.Left_outer ->
            li.nullable @ List.map (fun _ -> true) ri.nullable
      in
      let strict_res =
        List.concat_map (check_predicate st ~at:label schema) residual
      in
      {
        schema;
        nullable =
          (if kind = Plan.Inner then non_null strict_res nullable else nullable);
        padded = li.padded || ri.padded || kind = Plan.Left_outer;
      }
  | Plan.Group_agg ga | Plan.Hash_group_agg ga ->
      walk_group st ~label ~schema ga
  | Plan.Apply a ->
      (* a nested predicate's subquery plan is re-opened under each row *)
      let o = walk st a.outer in
      List.iter
        (fun ((p : Ast.predicate), sp) ->
          match (sp : Plan.subplan option) with
          | None -> ignore (check_predicate st ~at:label o.schema p)
          | Some sp ->
              ignore (with_bound st o.schema (fun () -> walk st sp.inner)))
        a.preds;
      o

(* The §5.2.1 rule: above a preserving join, COUNT must range over a
   column the padding can make NULL, or empty groups count 1.
   Aggregation consumes the padding: one row per group. *)
and walk_group st ~label ~schema { Plan.group_by; aggs; input } : info =
  let i = walk st input in
  let nullable_at c = List.nth i.nullable (Plan.find_col i.schema c) in
  List.iter
    (fun ({ Plan.fn; _ } : Plan.agg_item) ->
      if i.padded then
        match fn with
        | Ast.Count_star ->
            emit st "NQ112"
              ~hint:"sec. 5.2.1: convert COUNT(*) to COUNT over a \
                     null-padded inner column"
              "%s: COUNT(*) above a preserving join counts padded rows" label
        | Ast.Count c when not (nullable_at c) ->
            let col = Schema.column i.schema (Plan.find_col i.schema c) in
            emit st "NQ112"
              ~hint:"sec. 5.2.1: COUNT must range over a column the \
                     padding can make NULL"
              "%s: COUNT(%s.%s) above a preserving join counts a column \
               that can never be NULL, so empty groups count 1 instead of 0"
              label col.rel col.name
        | Ast.Count _ | Ast.Max _ | Ast.Min _ | Ast.Sum _ | Ast.Avg _ -> ())
    aggs;
  {
    schema;
    nullable =
      List.map nullable_at group_by
      @ List.map
          (fun ({ Plan.fn; _ } : Plan.agg_item) ->
            match fn with
            | Ast.Count_star | Ast.Count _ -> false
            | Ast.Max _ | Ast.Min _ | Ast.Sum _ | Ast.Avg _ -> true)
          aggs;
    padded = false;
  }

(* ---------------- entry point ------------------------------------------ *)

let check_catalog catalog node =
  match Plan.check catalog node with
  | Error (Plan.Unresolved msg) ->
      [ Diagnostics.make "NQ110" Ast.no_span "%s" msg ]
  | Error (Plan.Contract msg) ->
      [ Diagnostics.make "NQ115" Ast.no_span "%s" msg ]
  | Ok () ->
      let st = { catalog; diags = []; scope = [] } in
      ignore (walk st node);
      Diagnostics.sort (List.rev st.diags)

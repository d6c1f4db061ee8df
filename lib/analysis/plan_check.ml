(* Typed validation of physical plans.

   A bottom-up inference pass assigns every plan node a typed schema —
   provenance, name, type and a two-point nullability lattice value per
   column — and checks, at each operator, the contracts the executors
   assume instead of verifying: resolution (NQ110), comparison typing
   (NQ111), null-provenance through preserving joins (NQ112), group
   scoping (NQ113), provable sort-contract breaks (NQ114) and join method
   contracts (NQ115).  The pass is total: violations are collected, not
   raised, and inference continues wherever a schema can still be formed.

   Nullability is where the pass earns its keep on the paper's material:
   a left outer join forces every padded-side column to [Nullable], a
   strict (non-[<=>]) comparison refines its operands to [Non_null]
   downstream (rows where they are NULL evaluate Unknown and are dropped),
   and COUNT produces [Non_null Tint].  NEST-JA2's temp-3 shape — COUNT
   over the null-padded inner column of a preserving join — type-checks;
   Kim's NEST-JA shape with a COUNT over a column padding can never reach
   is exactly what NQ112 rejects. *)

module Ast = Sql.Ast
module Plan = Exec.Plan
module Schema = Relalg.Schema
module Value = Relalg.Value
module Catalog = Storage.Catalog

type nullability = Non_null | Nullable

type tcol = {
  t_rel : string;
  t_name : string;
  t_ty : Value.ty;
  t_nullable : nullability;
}

type tenv = {
  lookup : string -> Schema.t option;
  base_nullable : rel:string -> string -> bool;
  sorted_on : string -> int list option;
  has_index : string -> column:string -> bool;
}

let env_of_catalog catalog =
  {
    lookup = Catalog.lookup catalog;
    base_nullable =
      (fun ~rel col ->
        match Catalog.column_stats catalog rel col with
        | Some (_, cs) -> cs.Storage.Stats.nulls > 0
        | None -> true);
    sorted_on =
      (fun name ->
        match Catalog.sorted_on catalog name with
        | sorted -> sorted
        | exception Catalog.Unknown_table _ -> None);
    has_index =
      (fun name ~column ->
        match Catalog.column_stats catalog name column with
        | Some (key_col, _) -> Catalog.index_on catalog name ~key_col <> None
        | None -> false);
  }

(* ---------------- resolution over typed schemas ----------------------- *)

let pp_ref ppf (c : Ast.col_ref) = Sql.Pp.pp_col ppf c

(* Position of a reference in a typed schema, [Error] describing why it
   fails: the executors' [find_col] raises on exactly these. *)
let resolve (cols : tcol list) (c : Ast.col_ref) : (int, string) result =
  let indexed = List.mapi (fun i col -> (i, col)) cols in
  let matching =
    List.filter
      (fun (_, col) ->
        String.equal col.t_name c.column
        && match c.table with
           | None -> true
           | Some t -> String.equal col.t_rel t)
      indexed
  in
  match matching with
  | [ (i, _) ] -> Ok i
  | [] -> Error (Fmt.str "column %a not in the input schema" pp_ref c)
  | _ :: _ :: _ -> Error (Fmt.str "column %a is ambiguous" pp_ref c)

let nth cols i = List.nth cols i

(* Numeric types cross-compare ([Value.compare] orders Int/Float
   numerically); everything else must match exactly. *)
let tys_compatible a b =
  Value.equal_ty a b
  ||
  let numeric = function Value.Tint | Value.Tfloat -> true | _ -> false in
  numeric a && numeric b

(* ---------------- the inference pass ----------------------------------- *)

type state = {
  env : tenv;
  mutable diags : Diagnostics.t list;
  engine : Plan.engine;
  mutable bound : tcol list;
      (* the enclosing [Apply]s' rows: what a parameter resolves
         against *)
}

let emit st ?hint code fmt =
  Fmt.kstr
    (fun message ->
      st.diags <-
        Diagnostics.make ?hint code Ast.no_span "%s" message :: st.diags)
    fmt

(* What [walk] knows about a node's output: its typed schema (when it can
   be formed at all), the column positions the output is provably sorted
   on (a claim, from [Sort] nodes and catalog order metadata — [None]
   means unknown, never "unsorted"), and whether a preserving join's
   padding can reach this node's rows. *)
type info = {
  schema : tcol list option;
  sorted : int list option;
  padded : bool;
}

let no_info = { schema = None; sorted = None; padded = false }

let set_nullable cols positions =
  List.mapi
    (fun i c -> if List.mem i positions then { c with t_nullable = Non_null } else c)
    cols

(* [f ()] with [cols] bound as the innermost row: a plan re-opened under
   each row of [cols] reads them as parameters. *)
let with_bound st cols f =
  let saved = st.bound in
  st.bound <- cols @ saved;
  let r = f () in
  st.bound <- saved;
  r

(* A parameter: the innermost enclosing [Apply] row's column. *)
let bound_col st (c : Ast.col_ref) =
  List.find_opt
    (fun col -> String.equal col.t_name c.column && c.table = Some col.t_rel)
    st.bound

(* A scalar operand's type, and its position when it is a column of
   [cols]; a parameter has none. *)
let scalar_side st ~at cols = function
  | Ast.Lit v -> Ok (Value.type_of v, None)
  | Ast.Col c -> (
      match (resolve cols c, bound_col st c) with
      | Ok i, _ -> Ok (Some (nth cols i).t_ty, Some i)
      | Error _, Some col -> Ok (Some col.t_ty, None)
      | Error why, None ->
          emit st "NQ110" "%s: %s" at why;
          Error ())

(* Check one executable predicate ([Cmp] over Col/Lit, the [Filter] /
   residual contract) against a typed schema; returns the positions of
   strictly-compared columns (refinable to [Non_null]). *)
let check_predicate st ~at cols (p : Ast.predicate) : int list =
  match p with
  | Ast.Cmp (a, op, b) -> (
      let side = scalar_side st ~at cols in
      match (side a, side b) with
      | Ok (ta, ia), Ok (tb, ib) ->
          (match (ta, tb) with
          | Some ta, Some tb when not (tys_compatible ta tb) ->
              emit st "NQ111" "%s: %a compares %s against %s" at
                Sql.Pp.pp_predicate p (Value.type_name ta) (Value.type_name tb)
          | _ -> ());
          if op = Ast.Eq_null then []
          else List.filter_map (fun i -> i) [ ia; ib ]
      | _ -> [])
  | Ast.Cmp_outer _ ->
      emit st "NQ110" "%s: outer-join predicate must be a join condition" at;
      []
  | Ast.Cmp_subq _ | Ast.In_subq _ | Ast.Not_in_subq _ | Ast.Exists _
  | Ast.Not_exists _ | Ast.Quant _ ->
      emit st "NQ110" "%s: nested predicate reached the physical plan" at;
      []

(* Sorted positions surviving a projection: the longest prefix whose
   columns are all retained, remapped to output positions. *)
let project_sorted sorted positions =
  match sorted with
  | None -> None
  | Some prefix ->
      let rec surviving = function
        | [] -> []
        | p :: rest -> (
            match
              List.find_index (fun q -> q = p)
                positions
            with
            | Some out -> out :: surviving rest
            | None -> [])
      in
      (match surviving prefix with [] -> None | ps -> Some ps)

let rec walk st (node : Plan.node) : info =
  let label = Plan.label node in
  match node with
  | Plan.Scan name -> (
      match st.env.lookup name with
      | None ->
          emit st "NQ110" "%s: unknown table %s" label name;
          no_info
      | Some schema ->
          let cols =
            List.map
              (fun (c : Schema.column) ->
                {
                  t_rel = name;
                  t_name = c.name;
                  t_ty = c.ty;
                  t_nullable =
                    (if st.env.base_nullable ~rel:name c.name then Nullable
                     else Non_null);
                })
              (Schema.columns schema)
          in
          { schema = Some cols; sorted = st.env.sorted_on name; padded = false })
  | Plan.Index_scan { table; alias; column; lo; hi } -> (
      match st.env.lookup table with
      | None ->
          emit st "NQ110" "%s: unknown table %s" label table;
          no_info
      | Some schema ->
          if not (st.env.has_index table ~column) then
            emit st "NQ115" "%s: no index on %s.%s" label table column;
          let key_pos = ref None in
          let cols =
            List.mapi
              (fun i (c : Schema.column) ->
                if String.equal c.name column then key_pos := Some i;
                {
                  t_rel = alias;
                  t_name = c.name;
                  t_ty = c.ty;
                  t_nullable =
                    (* a bounded probe only returns rows where the key
                       compares against the bound, which NULL never does;
                       an unbounded index scan still skips NULL keys — the
                       tree does not store them *)
                    (if Option.is_some !key_pos && !key_pos = Some i then
                       Non_null
                     else if st.env.base_nullable ~rel:table c.name then
                       Nullable
                     else Non_null);
                })
              (Schema.columns schema)
          in
          (match !key_pos with
          | None ->
              emit st "NQ110" "%s: column %s not in the input schema" label
                column
          | Some p ->
              List.iter
                (function
                  | None -> ()
                  | Some (bound, _) ->
                      (match scalar_side st ~at:label [] bound with
                      | Ok (Some ty, _)
                        when not (tys_compatible ty (nth cols p).t_ty) ->
                          emit st "NQ111" "%s: bound compares %s against %s"
                            label
                            (Value.type_name ty)
                            (Value.type_name (nth cols p).t_ty)
                      | _ -> ()))
                [ lo; hi ]);
          (* output arrives in key order: the leaf level is sorted *)
          {
            schema = Some cols;
            sorted = Option.map (fun p -> [ p ]) !key_pos;
            padded = false;
          })
  | Plan.Rename (alias, input) ->
      let i = walk st input in
      {
        i with
        schema =
          Option.map (List.map (fun c -> { c with t_rel = alias })) i.schema;
      }
  | Plan.Filter (preds, input) -> (
      let i = walk st input in
      match i.schema with
      | None -> i
      | Some cols ->
          let strict =
            List.concat_map (check_predicate st ~at:label cols) preds
          in
          { i with schema = Some (set_nullable cols strict) })
  | Plan.Project (refs, input) -> (
      let i = walk st input in
      match i.schema with
      | None -> { i with sorted = None }
      | Some cols -> (
          let resolved =
            List.map
              (fun c ->
                match resolve cols c with
                | Ok p -> Some p
                | Error why ->
                    emit st "NQ110" "%s: %s" label why;
                    None)
              refs
          in
          match
            List.fold_right
              (fun p acc ->
                match (p, acc) with
                | Some p, Some ps -> Some (p :: ps)
                | _ -> None)
              resolved (Some [])
          with
          | None -> { i with schema = None; sorted = None }
          | Some positions ->
              {
                i with
                schema = Some (List.map (nth cols) positions);
                sorted = project_sorted i.sorted positions;
              }))
  | Plan.Distinct input -> walk st input
  | Plan.Hash_distinct input ->
      let i = walk st input in
      { i with sorted = None }
  | Plan.Sort (keys, input) -> (
      let i = walk st input in
      match i.schema with
      | None -> { i with sorted = None }
      | Some cols ->
          let positions =
            List.filter_map
              (fun c ->
                match resolve cols c with
                | Ok p -> Some p
                | Error why ->
                    emit st "NQ110" "%s: %s" label why;
                    None)
              keys
          in
          let sorted =
            if List.length positions = List.length keys then Some positions
            else None
          in
          { i with sorted })
  | Plan.Join { method_; kind; cond; residual; left; right } ->
      walk_join st ~label method_ kind cond residual left right
  | Plan.Group_agg ga -> walk_group st ~label ~sorted_variant:true ga
  | Plan.Hash_group_agg ga -> walk_group st ~label ~sorted_variant:false ga
  | Plan.Apply a -> walk_apply st ~label a

(* Simple predicates check as a filter's; a nested predicate's operand
   resolves, and its subquery's plan checks with the outer row bound, a
   value subquery yielding one column. *)
and walk_apply st ~label (a : Plan.apply) : info =
  let o = walk st a.outer in
  let cols = Option.value o.schema ~default:[] in
  let inner (sp : Plan.subplan) =
    (with_bound st cols (fun () -> walk st sp.inner)).schema
  in
  List.iter
    (fun ((p : Ast.predicate), sp) ->
      match (p, sp) with
      | Ast.Cmp _, _ | Ast.Cmp_outer _, _ ->
          ignore (check_predicate st ~at:label cols p)
      | _, None ->
          emit st "NQ110" "%s: nested predicate without a subplan" label
      | (Ast.Exists _ | Ast.Not_exists _), Some sp -> ignore (inner sp)
      | ( ( Ast.Cmp_subq (x, _, _) | Ast.In_subq (x, _) | Ast.Not_in_subq (x, _)
          | Ast.Quant (x, _, _, _) ),
          Some sp ) -> (
          ignore (scalar_side st ~at:label cols x);
          match inner sp with
          | Some (_ :: _ :: _ as many) ->
              emit st "NQ110" "%s: value subquery yields %d columns, not one"
                label (List.length many)
          | _ -> ()))
    a.preds;
  o

(* An index join's right side is re-opened under each left row, so it
   checks with the left columns bound, as an [Apply]'s inner plan does. *)
and walk_join st ~label method_ kind cond residual left right : info =
  let li = walk st left in
  let ri =
    if method_ <> Plan.Index_nl then walk st right
    else
      with_bound st (Option.value li.schema ~default:[]) (fun () ->
          walk st right)
  in
  let padded = li.padded || ri.padded || kind = Plan.Left_outer in
  match (li.schema, ri.schema) with
  | Some lcols, Some rcols ->
      (* Conditions: left-side references resolve in the left input,
         right-side in the right (the executors compile them exactly so). *)
      let strict_l = ref [] and strict_r = ref [] in
      List.iter
        (fun ((lc : Ast.col_ref), op, (rc : Ast.col_ref)) ->
          let l = resolve lcols lc and r = resolve rcols rc in
          (match (l, r) with
          | Ok li_, Ok ri_ ->
              let ta = (nth lcols li_).t_ty and tb = (nth rcols ri_).t_ty in
              if not (tys_compatible ta tb) then
                emit st "NQ111" "%s: condition %a %s %a compares %s against %s"
                  label pp_ref lc (Ast.cmp_name op) pp_ref rc
                  (Value.type_name ta) (Value.type_name tb);
              if op <> Ast.Eq_null then begin
                strict_l := li_ :: !strict_l;
                strict_r := ri_ :: !strict_r
              end
          | Error why, _ ->
              emit st "NQ110" "%s: left side of condition: %s" label why
          | _, Error why ->
              emit st "NQ110" "%s: right side of condition: %s" label why);
          ())
        cond;
      (* Method contracts (NQ115): what [Plan.run] would raise on. *)
      (match method_ with
      | Plan.Sort_merge | Plan.Hash ->
          if
            not
              (List.exists
                 (fun (_, op, _) -> op = Ast.Eq || op = Ast.Eq_null)
                 cond)
          then
            emit st "NQ115"
              "%s: %s join requires at least one equality condition" label
              (match method_ with Plan.Sort_merge -> "merge" | _ -> "hash")
      | Plan.Index_nl -> (
          match (right, cond) with
          | Plan.Index_scan { lo; hi; _ }, [] ->
              (* a NULL key probes nothing: a left column a bound reads
                 compares strictly *)
              List.iter
                (function
                  | Some (Ast.Col c, _) ->
                      Result.iter
                        (fun i -> strict_l := i :: !strict_l)
                        (resolve lcols c)
                  | _ -> ())
                [ lo; hi ]
          | _ ->
              emit st "NQ115"
                "%s: index join requires an index scan on the right and no \
                 join condition"
                label)
      | Plan.Nested_loop -> ());
      (* Sort contract for merge joins: flag only provable mismatches —
         a child that claims an order not led by its key column. *)
      (if method_ = Plan.Sort_merge then
         let eq_cond =
           List.filter (fun (_, op, _) -> op = Ast.Eq || op = Ast.Eq_null) cond
         in
         let key_positions cols side =
           List.filter_map
             (fun c -> match resolve cols c with Ok p -> Some p | Error _ -> None)
             (List.map side eq_cond)
         in
         let check_side what cols claimed =
           let keys = key_positions cols what in
           match claimed with
           | Some prefix when List.length keys > 0 ->
               let n = List.length keys in
               if List.length prefix >= n then begin
                 let lead = List.filteri (fun i _ -> i < n) prefix in
                 if
                   not
                     (List.for_all (fun k -> List.mem k lead) keys
                     && List.for_all (fun p -> List.mem p keys) lead)
                 then
                   emit st "NQ114"
                     "%s: merge-join input is sorted on different columns \
                      than its join key"
                     label
               end
           | _ -> ()
         in
         check_side (fun (lc, _, _) -> lc) lcols li.sorted;
         check_side (fun (_, _, rc) -> rc) rcols ri.sorted);
      (* Output schema: left then right.  Inner joins refine strictly
         compared columns to non-null; a preserving join instead pads every
         right-side column with NULLs for unmatched left rows. *)
      let lcols', rcols' =
        match kind with
        | Plan.Inner ->
            (set_nullable lcols !strict_l, set_nullable rcols !strict_r)
        | Plan.Left_outer ->
            ( lcols,
              List.map (fun c -> { c with t_nullable = Nullable }) rcols )
      in
      let joined = lcols' @ rcols' in
      (* Residual predicates see the joined row; under a preserving join
         padded rows bypass them, so they must still type-check but cannot
         refine nullability. *)
      let strict_res =
        List.concat_map (check_predicate st ~at:label joined) residual
      in
      let joined =
        if kind = Plan.Inner then set_nullable joined strict_res else joined
      in
      { schema = Some joined; sorted = None; padded }
  | _ -> { schema = None; sorted = None; padded }

and walk_group st ~label ~sorted_variant { Plan.group_by; aggs; input } : info
    =
  let i = walk st input in
  match i.schema with
  | None -> no_info
  | Some cols ->
      let key_positions =
        List.map
          (fun c ->
            match resolve cols c with
            | Ok p -> Some p
            | Error why ->
                emit st "NQ113" "%s: group key: %s" label why;
                None)
          group_by
      in
      (* Sorted GROUP BY needs equal keys adjacent; flag only when the
         input claims an order whose leading columns are not the keys. *)
      (if sorted_variant && group_by <> [] then
         match
           ( i.sorted,
             List.fold_right
               (fun p acc ->
                 match (p, acc) with
                 | Some p, Some ps -> Some (p :: ps)
                 | _ -> None)
               key_positions (Some []) )
         with
         | Some prefix, Some keys when List.length prefix >= List.length keys
           ->
             let lead = List.filteri (fun i _ -> i < List.length keys) prefix in
             if
               not
                 (List.for_all (fun k -> List.mem k lead) keys
                 && List.for_all (fun p -> List.mem p keys) lead)
             then
               emit st "NQ114"
                 "%s: input is sorted on different columns than the group \
                  keys"
                 label
         | _ -> ());
      (* Aggregate arguments and the COUNT null-provenance rule. *)
      let agg_col ({ Plan.fn; out_name } : Plan.agg_item) =
        let arg_info =
          match Ast.agg_arg fn with
          | None -> None
          | Some c -> (
              match resolve cols c with
              | Ok p -> Some (nth cols p)
              | Error why ->
                  emit st "NQ113" "%s: aggregate argument: %s" label why;
                  None)
        in
        (if i.padded then
           match fn with
           | Ast.Count_star ->
               emit st "NQ112"
                 ~hint:"sec. 5.2.1: convert COUNT(*) to COUNT over a \
                        null-padded inner column"
                 "%s: COUNT(*) above a preserving join counts padded rows"
                 label
           | Ast.Count _ -> (
               match arg_info with
               | Some col when col.t_nullable = Non_null ->
                   emit st "NQ112"
                     ~hint:"sec. 5.2.1: COUNT must range over a column the \
                            padding can make NULL"
                     "%s: COUNT(%s.%s) above a preserving join counts a \
                      column that can never be NULL, so empty groups count \
                      1 instead of 0"
                     label col.t_rel col.t_name
               | _ -> ())
           | Ast.Max _ | Ast.Min _ | Ast.Sum _ | Ast.Avg _ -> ());
        let ty =
          match fn with
          | Ast.Count_star | Ast.Count _ -> Value.Tint
          | Ast.Avg _ -> Value.Tfloat
          | Ast.Max _ | Ast.Min _ | Ast.Sum _ -> (
              match arg_info with
              | Some col -> col.t_ty
              | None -> Value.Tint (* unresolved; already reported *))
        in
        let nullable =
          match fn with
          | Ast.Count_star | Ast.Count _ -> Non_null
          | Ast.Max _ | Ast.Min _ | Ast.Sum _ | Ast.Avg _ -> Nullable
        in
        { t_rel = "agg"; t_name = out_name; t_ty = ty; t_nullable = nullable }
      in
      let agg_cols = List.map agg_col aggs in
      (* Colliding output names make every downstream reference ambiguous. *)
      let rec dup_names = function
        | [] -> ()
        | n :: rest ->
            if List.mem n rest then
              emit st "NQ113" "%s: duplicate aggregate output name %s" label n;
            dup_names (List.filter (fun m -> not (String.equal m n)) rest)
      in
      dup_names (List.map (fun (a : Plan.agg_item) -> a.out_name) aggs);
      let key_cols =
        List.filter_map (Option.map (nth cols)) key_positions
      in
      let schema =
        if List.exists Option.is_none key_positions then None
        else Some (key_cols @ agg_cols)
      in
      let sorted =
        if sorted_variant && schema <> None then
          Some (List.mapi (fun i _ -> i) group_by)
        else None
      in
      (* Aggregation consumes the padding: one row per group, counts
         corrected; downstream COUNTs no longer see padded rows. *)
      { schema; sorted; padded = false }

(* ---------------- entry points ----------------------------------------- *)

let run ?(engine = Plan.Tuple) env node =
  let st = { env; diags = []; engine; bound = [] } in
  ignore st.engine;
  let info = walk st node in
  (info.schema, Diagnostics.sort (List.rev st.diags))

let check ?engine env node = snd (run ?engine env node)

let check_catalog ?engine catalog node =
  check ?engine (env_of_catalog catalog) node

(* Static lint over nested queries.

   Works on *analyzed* queries (every column reference qualified).  Each
   nested block is classified with Kim's taxonomy independently of
   [Optimizer.Classify] — correlation comes from this pass's own walk
   ([free_aliases]), not [Ast.free_tables] — and cross-checked against an
   injected oracle (NQ006).  On top of the classification, the
   pass recognises the paper's three bug classes as susceptibility warnings:

   - NQ001: type-JA with a COUNT aggregate — Kim's NEST-JA loses zero-count
     groups (sec. 5.1-5.2); the planner must use NEST-JA2's outer join.
   - NQ002: type-JA correlated under a non-equality comparison — grouping
     the inner relation keys groups by the wrong side (sec. 5.3); NEST-JA2
     builds the theta-joined temporary instead.
   - NQ003: the outer join column of a type-JA block has duplicate values
     (per injected column statistics) — joining the raw outer relation
     would inflate the aggregate (sec. 5.4); NEST-JA2's TEMP1 projects it
     DISTINCT.

   plus hygiene checks (NQ004 unused FROM alias, NQ005 constant-false
   predicate), rewrite-applicability notes (NQ007) and the
   multiplicity-sensitive-merge warning (NQ008) matching the planner's Safe
   semantics.

   The classify oracle and the column statistics come in as callbacks: the
   optimizer depends on this library, so [Core] wires them in. *)

module Ast = Sql.Ast
module Value = Relalg.Value
module Truth = Relalg.Truth
module D = Diagnostics

(* ------------------------------------------------------------------ *)
(* Kim classification, independently of Optimizer.Classify             *)
(* ------------------------------------------------------------------ *)

(* The aliases a block references directly: SELECT items, aggregate
   arguments, WHERE operands, GROUP BY and ORDER BY, not its subqueries.
   Written here rather than taken from [Ast]'s free-variable walk, so that
   NQ006 compares two implementations. *)
let direct_aliases (q : Ast.query) =
  let col (c : Ast.col_ref) = Option.to_list c.Ast.table in
  let scalar = function Ast.Col c -> col c | Ast.Lit _ -> [] in
  let item = function
    | Ast.Sel_star -> []
    | Ast.Sel_col c -> col c
    | Ast.Sel_agg a -> Option.fold ~none:[] ~some:col (Ast.agg_arg a)
  in
  let pred = function
    | Ast.Cmp (a, _, b) | Ast.Cmp_outer (a, _, b) -> scalar a @ scalar b
    | Ast.Cmp_subq (a, _, _)
    | Ast.In_subq (a, _)
    | Ast.Not_in_subq (a, _)
    | Ast.Quant (a, _, _, _) ->
        scalar a
    | Ast.Exists _ | Ast.Not_exists _ -> []
  in
  List.concat_map item q.Ast.select
  @ List.concat_map pred q.Ast.where
  @ List.concat_map col q.Ast.group_by
  @ List.concat_map (fun (c, _) -> col c) q.Ast.order_by

(* The aliases [q]'s subtree references but does not bind.  Each level
   drops the aliases its own FROM binds, so a block that rebinds an outer
   alias shadows it.  A subquery is correlated iff this is non-empty. *)
let rec free_aliases (q : Ast.query) =
  let bound = List.map Ast.from_alias q.Ast.from in
  List.filter
    (fun a -> not (List.mem a bound))
    (direct_aliases q @ List.concat_map free_aliases (Ast.subqueries q))

let class_name ~aggregated ~correlated =
  match (aggregated, correlated) with
  | true, true -> "type-JA"
  | true, false -> "type-A"
  | false, true -> "type-J"
  | false, false -> "type-N"

(* ------------------------------------------------------------------ *)
(* Individual checks                                                   *)
(* ------------------------------------------------------------------ *)

let block_agg (q : Ast.query) =
  List.find_map
    (function Ast.Sel_agg a -> Some a | Ast.Sel_star | Ast.Sel_col _ -> None)
    q.Ast.select

let duplicate_sensitive_agg = function
  | Ast.Count_star | Ast.Count _ | Ast.Sum _ | Ast.Avg _ -> true
  | Ast.Max _ | Ast.Min _ -> false

(* Direct correlation predicates of [sub]: comparisons between a column
   bound by [sub] itself and a column bound by an enclosing block.  [env]
   maps the enclosing scopes' aliases to their relations. *)
let direct_correlations ~env (sub : Ast.query) =
  let local = List.map Ast.from_alias sub.Ast.from in
  let outer_side (c : Ast.col_ref) =
    match c.Ast.table with
    | Some t when (not (List.mem t local)) && List.mem_assoc t env -> Some t
    | _ -> None
  in
  List.filter_map
    (function
      | Ast.Cmp (Ast.Col a, op, Ast.Col b) -> (
          match (outer_side a, outer_side b) with
          | Some _, None -> Some (op, b, a) (* (op as written, inner, outer) *)
          | None, Some _ -> Some (Ast.flip_cmp op, a, b)
          | _ -> None)
      | _ -> None)
    sub.Ast.where

(* NULL compares with anything; an ill-typed pair is the analyzer's to
   report. *)
let comparable a b =
  match (Value.type_of a, Value.type_of b) with
  | Some ta, Some tb -> Value.comparable_ty ta tb
  | _ -> true

let check_constant_false ~emit ~span (p : Ast.predicate) =
  match p with
  | Ast.Cmp (Ast.Lit a, op, Ast.Lit b)
    when comparable a b && Exec.Eval.cmp_values op a b <> Truth.True ->
      emit
        (D.make "NQ005" span "predicate %a is never true" Sql.Pp.pp_predicate p)
  | Ast.Cmp (Ast.Col a, (Ast.Ne | Ast.Lt | Ast.Gt), Ast.Col b)
    when a = b ->
      emit
        (D.make "NQ005" span
           "predicate %a compares a column with itself and is never true"
           Sql.Pp.pp_predicate p)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

let lint ?classify ?column_stats (q : Ast.query) : D.t list =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* [env]: enclosing scopes' (alias, rel), innermost first, NOT including
     the current block. *)
  let rec walk ~env (q : Ast.query) =
    let span = q.Ast.span in
    let local_env =
      List.map (fun (f : Ast.from_item) -> (Ast.from_alias f, f.Ast.rel)) q.Ast.from
    in
    (* NQ004: an alias is used iff the block references it directly or one
       of its subqueries correlates through it. *)
    let used =
      direct_aliases q @ List.concat_map free_aliases (Ast.subqueries q)
    in
    List.iter
      (fun (alias, _) ->
        if not (List.mem alias used) then
          emit
            (D.make "NQ004" span
               "FROM binds %s but no column reference uses it: the block \
                computes a cross product over %s"
               alias alias))
      local_env;
    let env' = local_env @ env in
    List.iter
      (fun p ->
        check_constant_false ~emit ~span p;
        match p with
        | Ast.Cmp _ | Ast.Cmp_outer _ -> ()
        | Ast.Cmp_subq (_, _, sub)
        | Ast.In_subq (_, sub)
        | Ast.Not_in_subq (_, sub)
        | Ast.Exists sub
        | Ast.Not_exists sub
        | Ast.Quant (_, _, _, sub) ->
            let sub_span =
              if Ast.span_known sub.Ast.span then sub.Ast.span else span
            in
            let correlated = free_aliases sub <> [] in
            let aggregated = Ast.select_has_agg sub in
            let own = class_name ~aggregated ~correlated in
            (* NQ006: cross-check against the optimizer's classifier. *)
            (match classify with
            | Some oracle ->
                let theirs = oracle sub in
                if not (String.equal own theirs) then
                  emit
                    (D.make "NQ006" sub_span
                       "lint classifies this block as %s but \
                        Optimizer.Classify says %s"
                       own theirs)
            | None -> ());
            (* The three paper bug classes apply to type-JA blocks. *)
            if aggregated && correlated then begin
              (match block_agg sub with
              | Some (Ast.Count_star | Ast.Count _) ->
                  emit
                    (D.make "NQ001" sub_span
                       ~hint:
                         "sec. 5.1-5.2: rewrite needs NEST-JA2's outer join \
                          and COUNT over an inner column"
                       "COUNT aggregate in a correlated (type-JA) block: \
                        Kim's NEST-JA would lose outer tuples with an empty \
                        inner set (the COUNT bug)")
              | _ -> ());
              List.iter
                (fun (op, _inner, (outer : Ast.col_ref)) ->
                  match op with
                  | Ast.Eq -> (
                      (* NQ003 needs statistics for the outer column. *)
                      match column_stats with
                      | None -> ()
                      | Some stats -> (
                          match
                            Option.bind (Option.bind outer.Ast.table (fun t ->
                                List.assoc_opt t env'))
                              (fun rel -> stats rel outer.Ast.column)
                          with
                          | Some (distinct, rows) when distinct < rows ->
                              emit
                                (D.make "NQ003" sub_span
                                   ~hint:
                                     "sec. 5.4: rewrite must join against a \
                                      DISTINCT projection of the outer \
                                      relation (NEST-JA2's TEMP1)"
                                   "outer join column %a has duplicate \
                                    values (%d distinct in %d rows): a \
                                    naive join-back would count them twice"
                                   Sql.Pp.pp_col outer distinct rows)
                          | _ -> ()))
                  | op ->
                      emit
                        (D.make "NQ002" sub_span
                           ~hint:
                             "sec. 5.3: rewrite must group a theta-joined \
                              temporary keyed by the outer relation \
                              (NEST-JA2), not the inner relation alone"
                           "correlation under %s in a type-JA block: \
                            grouping the inner relation would key groups by \
                            the wrong side"
                           (Ast.cmp_name op)))
                (direct_correlations ~env:env' sub)
            end;
            (* NQ007: predicates the paper gives no transformation for. *)
            (match p with
            | Ast.Quant (_, Ast.Eq, Ast.All, _) ->
                emit
                  (D.make "NQ007" sub_span
                     "x = ALL (Q) has no paper transformation (sec. 8 \
                      covers the other quantifiers); it runs by nested \
                      iteration or batched bindings")
            | Ast.Not_in_subq _ ->
                emit
                  (D.make "NQ007" sub_span
                     "NOT IN has no paper transformation; the planner \
                      rewrites it through a zero COUNT when the catalog \
                      proves both sides non-null, else it runs by nested \
                      iteration or batched bindings")
            | _ -> ());
            (* NQ008: mirrors Nest_g's Safe-semantics refusal. *)
            if
              (not aggregated) && correlated
              && List.exists
                   (function
                     | Ast.Sel_agg a -> duplicate_sensitive_agg a
                     | Ast.Sel_star | Ast.Sel_col _ -> false)
                   q.Ast.select
            then
              emit
                (D.make "NQ008" sub_span
                   "correlated non-aggregate subquery under a \
                    duplicate-sensitive aggregate: merging it into a join \
                    (NEST-N-J) would change the aggregate's multiplicity, \
                    so the planner does not transform it and it runs by \
                    nested iteration or batched bindings (Safe semantics)");
            walk ~env:env' sub)
      q.Ast.where
  in
  walk ~env:[] q;
  D.sort !diags

(* ------------------------------------------------------------------ *)
(* Source-level entry point: parse + analyze + lint                    *)
(* ------------------------------------------------------------------ *)

let point_span (p : Sql.Lexer.position) : Ast.span =
  let pos = { Ast.line = p.Sql.Lexer.line; col = p.Sql.Lexer.col } in
  { Ast.sp_start = pos; sp_end = pos }

(* Lint a source text holding one or more ';'-separated queries.  Parse
   failures are NQ100, analyzer diagnostics NQ101; the structural pass only
   runs on queries whose analysis is clean (its checks assume qualified
   references). *)
let lint_source ?classify ?column_stats ~lookup src : D.t list =
  match Sql.Parser.parse_many_exn src with
  | exception Sql.Parser.Error (p, msg) ->
      [ D.make "NQ100" (point_span p) "parse error: %s" msg ]
  | exception Sql.Lexer.Error (p, msg) ->
      [ D.make "NQ100" (point_span p) "lexical error: %s" msg ]
  | queries ->
      List.concat_map
        (fun q ->
          let analyzed, adiags = Sql.Analyzer.analyze_all ~lookup q in
          match adiags with
          | [] -> lint ?classify ?column_stats analyzed
          | _ ->
              List.map
                (fun (d : Sql.Analyzer.diag) ->
                  D.make "NQ101" d.Sql.Analyzer.dspan "%s"
                    d.Sql.Analyzer.dmsg)
                adiags)
        queries
      |> D.sort

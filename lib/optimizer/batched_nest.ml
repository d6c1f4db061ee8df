(* Batched nested execution — Guravannavar's "batched bindings" strategy.

   The middle path between nested iteration (one inner evaluation per outer
   tuple) and set-oriented unnesting (NEST-JA2, which refuses shapes it
   cannot prove sound): collect the outer block's correlation-key values,
   deduplicate them into binding batches, evaluate the correlated subquery
   once per distinct batch with the keys substituted as literals, and probe
   the memoized answers while filtering outer rows.

   Soundness is by construction: the inner block is re-evaluated under
   exactly the bindings nested iteration would supply, only deduplicated —
   substituting a correlation column by the literal value nested iteration
   would have bound it to is observationally identical ([Eval.scalar] of a
   [Lit] is the value itself), NULL included (a NULL key yields the same
   Unknown comparisons the environment binding would).  That is why the
   strategy covers every Kim type the guarded rewrites refuse — non-equijoin
   correlation, COUNT over nullable keys, correlated subqueries below
   duplicate-sensitive aggregates — without needing their guards.

   The outer block (FROM chain plus the subquery-free predicates) runs
   through the ordinary [Planner] lowering, so restrictions are pushed,
   join methods costed (or forced), and both execution engines apply; the
   inner block recurses through this same evaluator, so nested nesting
   batches at every level.  Key deduplication uses [Value.hash]/[Value.equal]
   (PR 4's null-safe, Int/Float-consistent semantics — the same machinery
   as the hash join). *)

module Value = Relalg.Value
module Truth = Relalg.Truth
module Schema = Relalg.Schema
module Row = Relalg.Row
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module Env = Exec.Env
module Eval = Exec.Eval
open Sql.Ast

exception Unsupported of string

let errf fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

type batch = {
  label : string;  (** predicate kind plus its correlation keys *)
  outer_rows : int;  (** outer tuples probing this subquery *)
  bindings : int;  (** distinct key batches = inner evaluations *)
}
(** One WHERE subquery's batching story, for EXPLAIN and tests. *)

type result = { relation : Relation.t; batches : batch list }

(* ------------------------------------------------------------------ *)
(* Correlation keys                                                    *)
(* ------------------------------------------------------------------ *)

(* The correlation columns of a subquery, refusing shapes substitution
   cannot reach (a free ref in SELECT / GROUP BY / an aggregate argument
   cannot be replaced by a literal in this AST). *)
let correlation_keys (sub : query) : col_ref list =
  match Sql.Ast.correlation_keys sub with
  | Ok keys -> keys
  | Error c ->
      errf "correlated column %s.%s outside a WHERE predicate"
        (Option.value c.table ~default:"?")
        c.column

(* Substitute the free occurrences of the batch keys by their bound
   values, scope-aware: a block that re-binds an alias shadows it. *)
let substitute (keys : col_ref list) (values : Value.t list) (sub : query) :
    query =
  let binding =
    List.map2 (fun (c : col_ref) v -> ((c.table, c.column), v)) keys values
  in
  let rec go bound (q : query) =
    let bound =
      String_set.union bound
        (String_set.of_list (List.map from_alias q.from))
    in
    let scalar = function
      | Col c when
          (match c.table with
          | Some t -> not (String_set.mem t bound)
          | None -> false) -> (
          match List.assoc_opt (c.table, c.column) binding with
          | Some v -> Lit v
          | None -> Col c)
      | s -> s
    in
    let pred = function
      | Cmp (a, op, b) -> Cmp (scalar a, op, scalar b)
      | Cmp_outer (a, op, b) -> Cmp_outer (scalar a, op, scalar b)
      | Cmp_subq (a, op, s) -> Cmp_subq (scalar a, op, go bound s)
      | In_subq (a, s) -> In_subq (scalar a, go bound s)
      | Not_in_subq (a, s) -> Not_in_subq (scalar a, go bound s)
      | Exists s -> Exists (go bound s)
      | Not_exists s -> Not_exists (go bound s)
      | Quant (a, op, qf, s) -> Quant (scalar a, op, qf, go bound s)
    in
    { q with where = List.map pred q.where }
  in
  go String_set.empty sub

(* Null-safe batch-key table: NULL keys batch together (and the inner
   evaluation under a NULL literal reproduces the Unknown comparisons the
   reference produces), Int/Float keys that compare equal batch together. *)
module Key_tbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal

  let hash k = Hashtbl.hash (List.map Value.hash k)
end)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let pred_kind = function
  | Cmp_subq (_, op, _) -> cmp_name op ^ " (SELECT ...)"
  | In_subq _ -> "IN (SELECT ...)"
  | Not_in_subq _ -> "NOT IN (SELECT ...)"
  | Exists _ -> "EXISTS (SELECT ...)"
  | Not_exists _ -> "NOT EXISTS (SELECT ...)"
  | Quant (_, op, Any, _) -> cmp_name op ^ " ANY (SELECT ...)"
  | Quant (_, op, All, _) -> cmp_name op ^ " ALL (SELECT ...)"
  | Cmp _ | Cmp_outer _ -> "comparison"

let key_names (keys : col_ref list) =
  String.concat ", "
    (List.map
       (fun (c : col_ref) ->
         (match c.table with Some t -> t ^ "." | None -> "") ^ c.column)
       keys)

(* The canonical outer block: the FROM chain and the subquery-free
   predicates, selecting every column of every alias (in FROM order) so
   the rows slice back into per-alias environment bindings positionally. *)
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

let rec eval_block ~force ~mode ~engine ?session ~batches catalog (q : query)
    : Relation.t =
  let nested = List.filter predicate_has_subquery q.where in
  let canonical = outer_block catalog q in
  let { Planner.plan; _ } = Planner.lower ~force ~mode catalog canonical in
  let outer = Planner.run_plan ~engine ?session catalog plan in
  (* Slice each outer row back into per-alias bindings; the layout is the
     FROM-order concatenation [outer_block] selected. *)
  let frames =
    List.map
      (fun f ->
        let alias = from_alias f in
        (alias, Schema.rename_rel (Option.get (Catalog.lookup catalog f.rel)) alias))
      q.from
  in
  let envs =
    List.map
      (fun row ->
        snd
          (List.fold_left
             (fun (off, env) (alias, schema) ->
               let n = Schema.arity schema in
               ( off + n,
                 Env.bind env ~alias ~schema ~row:(Array.sub row off n) ))
             (0, Env.empty) frames))
      (Relation.rows outer)
  in
  (* One memoized relation-per-binding evaluator for each WHERE subquery:
     collect every outer row's key tuple, deduplicate, evaluate the
     substituted (closed) inner block once per distinct batch. *)
  let subquery_rel (p : predicate) (sub : query) : Env.t -> Relation.t =
    match correlation_keys sub with
    | [] ->
        let rel =
          lazy (eval_block ~force ~mode ~engine ~batches catalog sub)
        in
        fun _ -> Lazy.force rel
    | keys ->
        let tbl = Key_tbl.create 64 in
        let distinct_keys = ref [] in
        List.iter
          (fun env ->
            let k = List.map (fun c -> Env.lookup env c) keys in
            if not (Key_tbl.mem tbl k) then begin
              Key_tbl.add tbl k (ref None);
              distinct_keys := k :: !distinct_keys
            end)
          envs;
        (* Deterministic batch order: sorted under the NULL-first total
           order, independent of outer delivery order. *)
        let ordered =
          List.sort (List.compare Value.compare) !distinct_keys
        in
        List.iter
          (fun k ->
            let cell = Key_tbl.find tbl k in
            cell :=
              Some
                (eval_block ~force ~mode ~engine ~batches catalog
                   (substitute keys k sub)))
          ordered;
        batches :=
          {
            label = pred_kind p ^ " batched on " ^ key_names keys;
            outer_rows = List.length envs;
            bindings = List.length ordered;
          }
          :: !batches;
        fun env ->
          let k = List.map (fun c -> Env.lookup env c) keys in
          match !(Key_tbl.find tbl k) with
          | Some rel -> rel
          | None -> assert false
  in
  let column_of rel =
    if Schema.arity (Relation.schema rel) <> 1 then
      raise
        (Exec.Nested_iter.Runtime_error "subquery must return a single column");
    Relation.single_column rel
  in
  let truth_of (p : predicate) : Env.t -> Truth.t =
    match p with
    | Cmp _ | Cmp_outer _ -> assert false (* filtered by the planner *)
    | Cmp_subq (a, op, sub) -> (
        let rel = subquery_rel p sub in
        fun env ->
          let x = Eval.scalar env a in
          match column_of (rel env) with
          | [] -> Eval.cmp_values op x Value.Null
          | [ v ] -> Eval.cmp_values op x v
          | _ :: _ :: _ ->
              raise
                (Exec.Nested_iter.Runtime_error
                   "scalar subquery returned more than one row"))
    | In_subq (a, sub) ->
        let rel = subquery_rel p sub in
        fun env -> Eval.in_values (Eval.scalar env a) (column_of (rel env))
    | Not_in_subq (a, sub) ->
        let rel = subquery_rel p sub in
        fun env ->
          Truth.not_ (Eval.in_values (Eval.scalar env a) (column_of (rel env)))
    | Exists sub ->
        let rel = subquery_rel p sub in
        fun env -> Truth.of_bool (not (Relation.is_empty (rel env)))
    | Not_exists sub ->
        let rel = subquery_rel p sub in
        fun env -> Truth.of_bool (Relation.is_empty (rel env))
    | Quant (a, op, qf, sub) ->
        let rel = subquery_rel p sub in
        fun env ->
          Eval.quant_values op qf (Eval.scalar env a) (column_of (rel env))
  in
  let truths = List.map truth_of nested in
  let qualifying =
    List.filter
      (fun env ->
        match Truth.conjunction (List.map (fun t -> t env) truths) with
        | Truth.True -> true
        | Truth.False | Truth.Unknown -> false)
      envs
  in
  let rows = Exec.Nested_iter.eval_select ~qualifying q in
  let schema =
    Sql.Analyzer.output_schema ~lookup:(Catalog.lookup catalog) ~rel:"result" q
  in
  let rel = Relation.make schema rows in
  if q.distinct then Relation.distinct rel else rel

let run ?(force = Planner.Auto) ?(mode = Planner.Paper1987)
    ?(engine = Exec.Plan.Tuple) ?session catalog (q : query) : result =
  let batches = ref [] in
  let relation = eval_block ~force ~mode ~engine ?session ~batches catalog q in
  {
    relation = Exec.Presentation.apply_order q relation;
    batches = List.rev !batches;
  }

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)
(* ------------------------------------------------------------------ *)

let pp_batch ppf (b : batch) =
  Fmt.pf ppf "batch %s: %d outer rows -> %d binding batches" b.label
    b.outer_rows b.bindings

(* The outer block's physical plan (with [Estimate] annotations, via the
   ordinary planner EXPLAIN) followed by the batching story: statically the
   correlation keys per WHERE subquery, under ANALYZE the measured outer
   rows and distinct binding counts. *)
let explain ?(force = Planner.Auto) ?(mode = Planner.Paper1987)
    ?(engine = Exec.Plan.Tuple) ?(analyze = false) catalog (q : query) :
    string =
  let canonical = outer_block catalog q in
  let outer_txt =
    Planner.explain_text ~force ~mode ~engine catalog (Program.flat canonical)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "strategy: batched (outer block plan below)\n";
  Buffer.add_string buf outer_txt;
  if not (String.length outer_txt > 0 && outer_txt.[String.length outer_txt - 1] = '\n')
  then Buffer.add_char buf '\n';
  let nested = List.filter predicate_has_subquery q.where in
  if analyze then begin
    let { relation; batches } = run ~force ~mode ~engine catalog q in
    List.iter (fun b -> Buffer.add_string buf (Fmt.str " %a\n" pp_batch b)) batches;
    Buffer.add_string buf
      (Printf.sprintf "result: %d rows\n" (Relation.cardinality relation))
  end
  else
    List.iter
      (fun p ->
        let sub =
          match p with
          | Cmp_subq (_, _, s) | In_subq (_, s) | Not_in_subq (_, s)
          | Exists s | Not_exists s | Quant (_, _, _, s) ->
              s
          | Cmp _ | Cmp_outer _ -> assert false
        in
        match correlation_keys sub with
        | [] ->
            Buffer.add_string buf
              (Printf.sprintf " batch %s: uncorrelated, evaluated once\n"
                 (pred_kind p))
        | keys ->
            Buffer.add_string buf
              (Printf.sprintf " batch %s batched on %s\n" (pred_kind p)
                 (key_names keys)))
      nested;
  Buffer.contents buf

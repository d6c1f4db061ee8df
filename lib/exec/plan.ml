(* Physical plans: the tree every strategy hands to the executor.

   Transformed programs lower to joins, sorts and aggregations over stored
   relations.  The two untransformed strategies lower to the same operators
   plus one dependent join: an [Apply] re-opens a subquery's inner plan
   under each row of its input (nested iteration), or once per distinct
   correlation key (batched bindings).  An index nested-loop join re-opens
   its right side, an [Index_scan], the same way under each left row.
   Inside a re-opened plan, a column no operator below produces is a
   parameter read from the enclosing bindings.  Join
   conditions are (left column, op, right column) triples; only equality
   conditions may serve as sort-merge keys.  The executor compiles column
   references to positions against each node's output schema, so plans stay
   printable (EXPLAIN) while execution works on arrays. *)

module Value = Relalg.Value
module Truth = Relalg.Truth
module Schema = Relalg.Schema
module Row = Relalg.Row
module Catalog = Storage.Catalog
open Sql.Ast

type join_method = Nested_loop | Sort_merge | Index_nl | Hash

type join_kind = Inner | Left_outer

type agg_item = { fn : agg; out_name : string }

(* [(value, inclusive)] endpoint of an index range probe: a literal, or a
   column of the enclosing bindings. *)
type bound = scalar * bool

(* A range (not an equality) bounded by a parameter: whether the B-tree
   pays depends on the bound value, so the scan chooses per binding. *)
let per_binding lo hi =
  match (lo, hi) with
  | Some (v, true), Some (v', true) when v = v' -> false
  | _ -> List.exists (function Some (Col _, _) -> true | _ -> false) [ lo; hi ]

(* Per row: re-open every subquery for each input row (nested iteration).
   Per key: evaluate each subquery once per distinct correlation-key tuple,
   in key order (batched bindings). *)
type apply_mode = Per_row | Per_key

type node =
  | Scan of string
  | Index_scan of {
      table : string; (* base table carrying the B-tree *)
      alias : string; (* output provenance; equals [table] when unaliased *)
      column : string; (* indexed column, resolved on the table's schema *)
      lo : bound option; (* missing bound = unbounded on that side *)
      hi : bound option; (* lo = hi = Some (v, true) is an equality probe *)
    }
  | Rename of string * node
      (* re-tag every output column's provenance: an aliased scan *)
  | Filter of predicate list * node (* Cmp with Col/Lit operands only *)
  | Project of col_ref list * node
  | Distinct of node
  | Hash_distinct of node (* beyond the paper: no sort, no page I/O *)
  | Sort of col_ref list * node
  | Join of {
      method_ : join_method;
      kind : join_kind;
      cond : (col_ref * cmp * col_ref) list;
      residual : predicate list;
      left : node;
      right : node;
    }
  | Group_agg of group_agg
  | Hash_group_agg of group_agg (* beyond the paper: unsorted input *)
  | Apply of apply

and group_agg = { group_by : col_ref list; aggs : agg_item list; input : node }

(* [preds] are evaluated against every input row, all of them (no
   short-circuit); a nested predicate carries its subquery's plan. *)
and apply = {
  mode : apply_mode;
  preds : (predicate * subplan option) list;
  outer : node;
}

(* [keys]: the subquery's free column references, its correlation. *)
and subplan = { keys : col_ref list; inner : node }

exception Plan_error of string

let errf fmt = Fmt.kstr (fun s -> raise (Plan_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Schema computation                                                  *)
(* ------------------------------------------------------------------ *)

let find_col schema (c : col_ref) =
  match c.table with
  | Some rel -> Schema.find schema ~rel c.column
  | None -> Schema.find schema c.column

let agg_output_type schema (a : agg) : Value.ty =
  match a with
  | Count_star | Count _ -> Value.Tint
  | Avg _ -> Value.Tfloat
  | Max c | Min c | Sum c ->
      (Schema.column schema (find_col schema c)).ty

let rec output_schema (catalog : Catalog.t) (node : node) : Schema.t =
  match node with
  | Scan name -> Schema.rename_rel (Catalog.schema catalog name) name
  | Index_scan { table; alias; _ } ->
      Schema.rename_rel (Catalog.schema catalog table) alias
  | Rename (alias, input) -> Schema.rename_rel (output_schema catalog input) alias
  | Filter (_, input) -> output_schema catalog input
  | Project (cols, input) ->
      let s = output_schema catalog input in
      Schema.project s (List.map (find_col s) cols)
  | Distinct input | Hash_distinct input | Sort (_, input) ->
      output_schema catalog input
  | Join { left; right; _ } ->
      Schema.append (output_schema catalog left) (output_schema catalog right)
  | Group_agg { group_by; aggs; input } | Hash_group_agg { group_by; aggs; input }
    ->
      let s = output_schema catalog input in
      let group_cols =
        List.map (fun c -> Schema.column s (find_col s c)) group_by
      in
      let agg_cols =
        List.map
          (fun { fn; out_name } ->
            { Schema.rel = "agg"; name = out_name; ty = agg_output_type s fn })
          aggs
      in
      Schema.make (group_cols @ agg_cols)
  | Apply { outer; _ } -> output_schema catalog outer

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

(* One plan execution: the rows of the enclosing [Apply]s a re-opened
   plan runs under, innermost first, and the uncorrelated value lists
   nested iteration has materialized so far (shared by every re-opened
   plan, deleted when the execution ends). *)
type ctx = {
  env : (Schema.t * Row.t) list;
  memo : (query * Storage.Heap_file.t) list ref;
}

let find_in schema (c : col_ref) = Schema.find_opt schema ?rel:c.table c.column

(* A parameter's value: the innermost binding with the column. *)
let env_lookup env (c : col_ref) =
  List.find_map
    (fun (schema, row) -> Option.map (Row.get row) (find_in schema c))
    env

let env_value env c =
  match env_lookup env c with
  | Some v -> v
  | None -> errf "column %a is not bound" Sql.Pp.pp_col c

(* A parameter — a column [schema] lacks — replaced by its value, so
   predicates compile as literal comparisons (an ambiguous column is no
   parameter: compiling it reports the ambiguity). *)
let bind_scalar env schema = function
  | Col c
    when env <> []
         && match find_in schema c with
            | None -> true
            | Some _ | (exception Schema.Ambiguous _) -> false ->
      Option.fold ~none:(Col c) ~some:(fun v -> Lit v) (env_lookup env c)
  | s -> s

let bind_params env schema =
  List.map (function
    | Cmp (a, op, b) ->
        Cmp (bind_scalar env schema a, op, bind_scalar env schema b)
    | p -> p)

(* ------------------------------------------------------------------ *)
(* Predicate compilation                                               *)
(* ------------------------------------------------------------------ *)

let compile_scalar schema = function
  | Lit v -> fun (_ : Row.t) -> v
  | Col c ->
      let i = find_col schema c in
      fun row -> Row.get row i

(* A plan predicate is a comparison of columns and literals; nested
   predicates are planned as an [Apply]'s and never compile. *)
let comparison = function
  | Cmp (a, op, b) -> (a, op, b)
  | Cmp_outer _ -> errf "outer-join predicate must be a join condition"
  | Cmp_subq _ | In_subq _ | Not_in_subq _ | Exists _ | Not_exists _
  | Quant _ ->
      errf "nested predicate reached the physical planner"

let compile_predicate schema (p : predicate) : Row.t -> Truth.t =
  let a, op, b = comparison p in
  let fa = compile_scalar schema a and fb = compile_scalar schema b in
  fun row -> Eval.cmp_values op (fa row) (fb row)

(* A conjunction evaluated left to right, stopping at the first False and
   remembering an Unknown: False absorbs, so the result is
   [Truth.conjunction]'s, and since every compiled predicate is a pure
   comparison, a skipped one skips no page I/O.  Top-level and
   tail-recursive, so an evaluation allocates nothing. *)
let rec all_true fs row acc =
  match fs with
  | [] -> acc
  | f :: rest -> (
      match f row with
      | Truth.False -> Truth.False
      | Truth.True -> all_true rest row acc
      | Truth.Unknown -> all_true rest row Truth.Unknown)

let rec all_true2 fs l r acc =
  match fs with
  | [] -> acc
  | f :: rest -> (
      match f l r with
      | Truth.False -> Truth.False
      | Truth.True -> all_true2 rest l r acc
      | Truth.Unknown -> all_true2 rest l r Truth.Unknown)

let compile_conjunction schema preds : Row.t -> Truth.t =
  match List.map (compile_predicate schema) preds with
  | [] -> fun _ -> Truth.True
  | [ f ] -> f
  | fs -> fun row -> all_true fs row Truth.True

(* ------------------------------------------------------------------ *)
(* Join compilation (shared by both engines)                           *)
(* ------------------------------------------------------------------ *)

(* Column references, null-safety flags and residual predicates compile
   identically whichever engine runs the join; these helpers take the
   already-built input schemas so the tuple and vectorized executors can
   share every semantic decision. *)

(* A join's conditions and residual as one short-circuit test on the
   (left, right) pair.  A residual column is resolved on the joined schema
   and read from whichever row holds it, so no joined row is built to test
   a pair. *)
let compile_pair_conjunction env (lschema : Schema.t) (rschema : Schema.t)
    ~cond ~residual : Row.t -> Row.t -> Truth.t =
  let cond_fns =
    List.map
      (fun (lc, op, rc) ->
        let li = find_col lschema lc and ri = find_col rschema rc in
        fun l r -> Eval.cmp_values op (Row.get l li) (Row.get r ri))
      cond
  in
  let joined = Schema.append lschema rschema in
  let split = Schema.arity lschema in
  let operand = function
    | Lit v -> fun _ _ -> v
    | Col c ->
        let i = find_col joined c in
        if i < split then fun l _ -> Row.get l i
        else
          let i = i - split in
          fun _ r -> Row.get r i
  in
  let residual_fns =
    List.map
      (fun p ->
        let a, op, b = comparison p in
        let fa = operand a and fb = operand b in
        fun l r -> Eval.cmp_values op (fa l r) (fb l r))
      (bind_params env joined residual)
  in
  match cond_fns @ residual_fns with
  | [] -> fun _ _ -> Truth.True
  | [ f ] -> f
  | fs -> fun l r -> all_true2 fs l r Truth.True

(* Split an equi-joinable condition list: equality conditions become keys
   (with their [<=>] null-safety flags), the rest fold into the residual.
   Returns [(left_key, right_key, null_safe, residual_fn, joined_schema)].
   @raise Plan_error when no equality condition exists. *)
let equi_join_parts ~method_name env (lschema : Schema.t) (rschema : Schema.t)
    ~cond ~residual =
  let eq_cond, rest =
    List.partition (fun (_, op, _) -> op = Eq || op = Eq_null) cond
  in
  if eq_cond = [] then
    errf "%s join requires at least one equality condition" method_name;
  let null_safe = List.map (fun (_, op, _) -> op = Eq_null) eq_cond in
  let left_key = List.map (fun (lc, _, _) -> find_col lschema lc) eq_cond in
  let right_key = List.map (fun (_, _, rc) -> find_col rschema rc) eq_cond in
  (* No residual function at all when every condition became a key: the
     executors' pure-equi fast paths must not pay a per-match call for an
     always-true check. *)
  let residual_opt =
    if rest = [] && residual = [] then None
    else
      Some (compile_pair_conjunction env lschema rschema ~cond:rest ~residual)
  in
  (left_key, right_key, null_safe, residual_opt, Schema.append lschema rschema)

(* An IndexScan streams a B-tree probe: O(height) page reads down to the
   start leaf, then a leaf walk with data pages fetched through the pool —
   output arrives in key order (the leaf level is sorted).  A range bounded
   by a parameter takes the access path the planner takes for a literal:
   the probe when, for the bound value, it is estimated cheaper than
   reading the relation, else the heap, kept to the bounds. *)
let index_scan catalog env ~table ~alias ~column ~lo ~hi : Iterator.t =
  let heap_schema = Catalog.schema catalog table in
  let key_col =
    match Schema.find_opt heap_schema column with
    | Some i -> i
    | None -> errf "index scan: no column %s in %s" column table
  in
  let index =
    match Catalog.index_on catalog table ~key_col with
    | Some idx -> idx
    | None -> errf "no index on %s.%s for the index scan" table column
  in
  let resolve =
    Option.map (function
      | Lit v, incl -> (v, incl)
      | Col c, incl -> (env_value env c, incl))
  in
  let lo' = resolve lo and hi' = resolve hi in
  let schema = Schema.rename_rel heap_schema alias in
  let sel op = function
    | None -> 1.
    | Some (v, _) -> (
        match Catalog.column_stats catalog table column with
        | Some (_, cs) -> Storage.Stats.literal_selectivity cs op v
        | None -> Storage.Stats.default_range_selectivity)
  in
  if
    per_binding lo hi
    && not
         (Catalog.probe_beats_scan catalog table index
            ~sel:(sel Ge lo' *. sel Le hi'))
  then
    let within op = function
      | None -> fun _ -> true
      | Some (v, incl) ->
          let op = if incl then op else if op = Ge then Gt else Lt in
          fun row -> Eval.cmp_values op (Row.get row key_col) v = Truth.True
    in
    let above = within Ge lo' and below = within Le hi' in
    let it = Iterator.scan (Catalog.heap catalog table) in
    Iterator.filter
      ~pred:(fun row -> Truth.of_bool (above row && below row))
      { it with schema }
  else
    let next = Storage.Btree.range index ?lo:lo' ?hi:hi' () in
    match (lo', hi') with
    | Some (v, true), Some (v', true) when Value.equal v v' ->
        (* an equality probe is one lookup: its matches are fetched
           together, at the first pull *)
        let all =
          lazy (Iterator.of_rows schema (Iterator.to_rows { schema; next }))
        in
        { schema; next = (fun () -> (Lazy.force all).next ()) }
    | _ -> { Iterator.schema; next }

(* Index nested loops: the right side, an [Index_scan] whose bound reads
   the left row as a parameter, is re-opened through [child] under each
   left row — as [Apply] re-opens an inner plan — and one probe's matches
   are fetched before the first is returned. *)
let index_nl_join catalog ctx ~child ~outer_join ~cond ~residual ~right
    (lit : Iterator.t) : Iterator.t =
  (match (right, cond) with
  | Index_scan _, [] -> ()
  | _ ->
      errf
        "index join requires an index scan on the right and no join \
         condition");
  let lschema = lit.Iterator.schema and rschema = output_schema catalog right in
  let residual =
    if residual = [] then None
    else
      Some
        (compile_pair_conjunction ctx.env lschema rschema ~cond:[] ~residual)
  in
  let probe l =
    Iterator.to_rows (child { ctx with env = (lschema, l) :: ctx.env } right)
  in
  let it =
    Iterator.index_nested_loop_join ~outer_join ?residual ~probe
      ~right_schema:rschema lit
  in
  { it with Iterator.schema = Schema.append lschema rschema }

(* Tuple nested loops: the inner side must be stored so it can be
   re-scanned; scans use the stored heap, other subtrees are materialized
   first via [right_iter] (their pages written and the writes counted). *)
let nested_loop_join catalog env ~outer_join ~cond ~residual ~right
    ~(right_iter : unit -> Iterator.t) (lit : Iterator.t) : Iterator.t =
  let pager = Catalog.pager catalog in
  let right_heap, rschema =
    match right with
    | Scan name ->
        let heap = Catalog.heap catalog name in
        (heap, Schema.rename_rel (Storage.Heap_file.schema heap) name)
    | Rename (alias, Scan name) ->
        let heap = Catalog.heap catalog name in
        (heap, Schema.rename_rel (Storage.Heap_file.schema heap) alias)
    | _ ->
        let heap = Iterator.materialize pager (right_iter ()) in
        (heap, Storage.Heap_file.schema heap)
  in
  let theta =
    compile_pair_conjunction env lit.Iterator.schema rschema ~cond ~residual
  in
  let it = Iterator.nested_loop_join ~outer_join ~theta lit right_heap in
  { it with Iterator.schema = Schema.append lit.Iterator.schema rschema }

(* Group keys and aggregate specs against the input schema. *)
let group_agg_parts (ischema : Schema.t) ~group_by ~aggs =
  let group_key = List.map (find_col ischema) group_by in
  let agg_specs =
    List.map
      (fun { fn; _ } ->
        { Iterator.fn; arg = Option.map (find_col ischema) (agg_arg fn) })
      aggs
  in
  (group_key, agg_specs)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Which executor runs a plan.  [Tuple] is the Volcano engine — the default
   and the oracle's reference; [Vectorized] pulls column-major batches
   through [Vec], falling back to the tuple operators (through adapters)
   for sorts and non-hash joins. *)
type engine = Tuple | Vectorized

let engine_name = function Tuple -> "tuple" | Vectorized -> "vectorized"

let engine_of_string = function
  | "tuple" -> Some Tuple
  | "vectorized" | "vec" -> Some Vectorized
  | _ -> None

(* An observer intercepts the construction of every operator: it receives
   the plan node and a thunk that builds its iterator (including the eager
   work of sorts and hash builds), and returns the iterator to use — usually
   the built one wrapped with instrumentation.  [Explain] uses this to
   attach per-operator metrics and trace events without the executor knowing
   about either.  [vec_observer] is the same protocol for the vectorized
   engine. *)
type observer = node -> (unit -> Iterator.t) -> Iterator.t
type vec_observer = node -> (unit -> Vec.t) -> Vec.t

(* ------------------------------------------------------------------ *)
(* Apply: the dependent join                                          *)
(* ------------------------------------------------------------------ *)

let runtime_error msg = raise (Eval.Runtime_error msg)

(* One nested predicate over an input row, given its subquery's result
   rows for that row. *)
let nested_truth env schema ~inner_schema (p : predicate) ~result =
  let operand a = compile_scalar schema (bind_scalar env schema a) in
  let column row =
    let rows = result row in
    if Schema.arity inner_schema <> 1 then
      runtime_error "subquery must return a single column";
    List.map (fun r -> Row.get r 0) rows
  in
  match p with
  | Cmp_subq (a, op, _) -> (
      let x = operand a in
      fun row ->
        let x = x row in
        match column row with
        | [] -> Eval.cmp_values op x Value.Null
        | [ v ] -> Eval.cmp_values op x v
        | _ :: _ :: _ ->
            runtime_error "scalar subquery returned more than one row")
  | In_subq (a, _) ->
      let x = operand a in
      fun row -> Eval.in_values (x row) (column row)
  | Not_in_subq (a, _) ->
      let x = operand a in
      fun row -> Truth.not_ (Eval.in_values (x row) (column row))
  | Exists _ -> fun row -> Truth.of_bool (result row <> [])
  | Not_exists _ -> fun row -> Truth.of_bool (result row = [])
  | Quant (a, op, qf, _) ->
      let x = operand a in
      fun row -> Eval.quant_values op qf (x row) (column row)
  | Cmp _ | Cmp_outer _ -> assert false

(* Per key: each distinct key tuple of [rows] evaluated once, in key order
   (NULL first), under the first row that carries it; NULL keys share one
   tuple, Int/Float keys that compare equal share one. *)
let per_key_results ctx schema rows keys ~eval =
  let key_of row =
    Array.of_list (List.map (env_value ((schema, row) :: ctx.env)) keys)
  in
  let first = Row.Tbl.create 64 and results = Row.Tbl.create 64 in
  List.iter
    (fun row ->
      let k = key_of row in
      if not (Row.Tbl.mem first k) then Row.Tbl.add first k row)
    rows;
  List.iter
    (fun (k, row) -> Row.Tbl.add results k (eval row))
    (List.sort
       (fun (a, _) (b, _) -> Row.compare a b)
       (List.of_seq (Row.Tbl.to_seq first)));
  fun row -> Row.Tbl.find results (key_of row)

(* [reopen ctx inner] runs an inner plan to completion under [ctx]. *)
let apply catalog ctx (a : apply) ~reopen (input : Iterator.t) : Iterator.t =
  let schema = input.Iterator.schema in
  (* Per key, every subquery is evaluated before the first row is
     filtered. *)
  let rows = if a.mode = Per_key then Iterator.to_rows input else [] in
  let truth (p, sp) =
    match (sp, p) with
    | None, Cmp _ ->
        compile_predicate schema (List.hd (bind_params ctx.env schema [ p ]))
    | None, _ ->
        fun _ ->
          runtime_error "outer-join predicate is not valid in a source query"
    | Some sp, _ ->
        let sub = Option.get (predicate_subquery p) in
        let rerun row =
          reopen { ctx with env = (schema, row) :: ctx.env } sp.inner
        in
        let inner_schema = output_schema catalog sp.inner in
        let result =
          match (a.mode, sp.keys, p) with
          | Per_row, _ :: _, _ | Per_row, [], (Exists _ | Not_exists _) ->
              rerun
          | Per_row, [], _ ->
              (* An uncorrelated value list is materialized at first use
                 and re-read through the pool on every evaluation. *)
              fun _ ->
                let heap =
                  match List.assoc_opt sub !(ctx.memo) with
                  | Some heap -> heap
                  | None ->
                      let rows = reopen ctx sp.inner in
                      if Schema.arity inner_schema <> 1 then
                        runtime_error "subquery must return a single column";
                      let heap =
                        Storage.Heap_file.of_relation (Catalog.pager catalog)
                          (Relalg.Relation.make inner_schema rows)
                      in
                      ctx.memo := (sub, heap) :: !(ctx.memo);
                      heap
                in
                Iterator.to_rows (Iterator.scan heap)
          | Per_key, [], _ ->
              let once = lazy (reopen ctx sp.inner) in
              fun _ -> Lazy.force once
          | Per_key, keys, _ -> per_key_results ctx schema rows keys ~eval:rerun
        in
        nested_truth ctx.env schema ~inner_schema p ~result
  in
  let truths = List.map truth a.preds in
  Iterator.filter
    ~pred:(fun row -> Truth.conjunction (List.map (fun f -> f row) truths))
    (if a.mode = Per_key then Iterator.of_rows schema rows else input)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* One operator of the tuple engine; [child] builds an input (under the
   given bindings: [Apply] re-opens its inner plans through it). *)
let tuple_node ~(child : ctx -> node -> Iterator.t) ctx (catalog : Catalog.t)
    (node : node) : Iterator.t =
  let pager = Catalog.pager catalog in
  let env = ctx.env in
  let input n = child ctx n in
  match node with
  | Scan name ->
      let it = Iterator.scan (Catalog.heap catalog name) in
      (* Present stored columns under the table's name so plan-level
         references [name.col] resolve. *)
      { it with schema = Schema.rename_rel it.schema name }
  | Index_scan { table; alias; column; lo; hi } ->
      index_scan catalog env ~table ~alias ~column ~lo ~hi
  | Rename (alias, i) ->
      let it = input i in
      { it with schema = Schema.rename_rel it.schema alias }
  | Filter (preds, i) ->
      let it = input i in
      Iterator.filter
        ~pred:(compile_conjunction it.schema (bind_params env it.schema preds))
        it
  | Project (cols, i) ->
      let it = input i in
      Iterator.project ~idxs:(List.map (find_col it.schema) cols) it
  | Distinct i -> Iterator.distinct pager (input i)
  | Hash_distinct i -> Iterator.hash_distinct (input i)
  | Sort (cols, i) ->
      let it = input i in
      Iterator.sort pager ~key:(List.map (find_col it.schema) cols) it
  | Join { method_; kind; cond; residual; left; right } -> (
      let lit = input left in
      let outer_join = kind = Left_outer in
      match method_ with
      | Index_nl ->
          index_nl_join catalog ctx ~child ~outer_join ~cond ~residual ~right
            lit
      | Nested_loop ->
          nested_loop_join catalog env ~outer_join ~cond ~residual ~right
            ~right_iter:(fun () -> input right)
            lit
      | Hash | Sort_merge ->
          let rit = input right in
          let left_key, right_key, null_safe, residual, joined_schema =
            equi_join_parts
              ~method_name:(if method_ = Hash then "hash" else "sort-merge")
              env lit.schema rit.schema ~cond ~residual
          in
          let join =
            if method_ = Hash then Iterator.hash_join else Iterator.merge_join
          in
          let it =
            join ~outer_join ~null_safe ?residual ~left_key ~right_key lit rit
          in
          { it with schema = joined_schema })
  | Group_agg { group_by; aggs; input = i }
  | Hash_group_agg { group_by; aggs; input = i } ->
      let it = input i in
      let group_key, agg_specs = group_agg_parts it.schema ~group_by ~aggs in
      let schema = output_schema catalog node in
      let agg_op =
        match node with
        | Hash_group_agg _ -> Iterator.hash_group_agg
        | _ -> Iterator.group_agg_sorted
      in
      agg_op ~group_key ~aggs:agg_specs ~schema it
  | Apply a ->
      apply catalog ctx a
        ~reopen:(fun ctx n -> Iterator.to_rows (child ctx n))
        (input a.outer)

let observed observe node build =
  match observe with None -> build () | Some f -> f node build

let rec exec ?observe ctx catalog node : Iterator.t =
  observed observe node (fun () ->
      tuple_node
        ~child:(fun ctx n -> exec ?observe ctx catalog n)
        ctx catalog node)

(* The vectorized executor: hot operators (scan, filter, project, hash
   distinct/join/group) run batch-at-a-time through [Vec]; every other
   operator runs its tuple implementation between adapters, so any plan
   executes under either engine. *)
let rec exec_vec ?observe ctx (catalog : Catalog.t) (node : node) : Vec.t =
  let input n = exec_vec ?observe ctx catalog n in
  let env = ctx.env in
  observed observe node @@ fun () ->
  match node with
  | Scan name ->
      let v = Vec.scan (Catalog.heap catalog name) in
      Vec.with_schema v (Schema.rename_rel v.Vec.schema name)
  | Rename (alias, i) ->
      let v = input i in
      Vec.with_schema v (Schema.rename_rel v.Vec.schema alias)
  | Filter (preds, i) ->
      let v = input i in
      Vec.filter
        ~pred:
          (Vec.compile_conjunction v.Vec.schema
             (bind_params env v.Vec.schema preds))
        v
  | Project (cols, Join { method_ = Hash; kind; cond; residual; left; right })
    when observe = None ->
      (* Late materialization: fuse the projection into the hash join's
         gather so dropped columns are never copied.  Skipped under
         [observe] to keep per-node EXPLAIN ANALYZE accounting intact. *)
      let lv = input left in
      let rv = input right in
      let left_key, right_key, null_safe, residual, joined_schema =
        equi_join_parts ~method_name:"hash" env lv.Vec.schema rv.Vec.schema
          ~cond ~residual
      in
      let idxs = List.map (find_col joined_schema) cols in
      Vec.hash_join ~outer_join:(kind = Left_outer) ~null_safe ?residual
        ~project:idxs ~left_key ~right_key lv rv
  | Project (cols, i) ->
      let v = input i in
      let idxs = List.map (find_col v.Vec.schema) cols in
      Vec.project
        ~schema:(Schema.project v.Vec.schema idxs)
        ~positions:(Array.of_list idxs) v
  | Hash_distinct i -> Vec.hash_distinct (input i)
  | Join { method_ = Hash; kind; cond; residual; left; right } ->
      let lv = input left in
      let rv = input right in
      let left_key, right_key, null_safe, residual, _joined_schema =
        equi_join_parts ~method_name:"hash" env lv.Vec.schema rv.Vec.schema
          ~cond ~residual
      in
      Vec.hash_join ~outer_join:(kind = Left_outer) ~null_safe ?residual
        ~left_key ~right_key lv rv
  | Hash_group_agg { group_by; aggs; input = i } ->
      let v = input i in
      let group_key, agg_specs = group_agg_parts v.Vec.schema ~group_by ~aggs in
      let schema = output_schema catalog node in
      Vec.hash_group_agg ~group_key ~aggs:agg_specs ~schema v
  | _ ->
      Vec.of_tuple
        (tuple_node
           ~child:(fun ctx n -> Vec.to_tuple (exec_vec ?observe ctx catalog n))
           ctx catalog node)

(* Run to completion, then delete the value lists nested iteration
   materialized. *)
let with_fresh_ctx f =
  let ctx = { env = []; memo = ref [] } in
  let result = f ctx in
  List.iter (fun (_, heap) -> Storage.Heap_file.delete heap) !(ctx.memo);
  result

let run ?observe catalog node : Relalg.Relation.t =
  with_fresh_ctx (fun ctx ->
      Iterator.to_relation (exec ?observe ctx catalog node))

let run_vec ?observe catalog node : Relalg.Relation.t =
  with_fresh_ctx (fun ctx ->
      let v = exec_vec ?observe ctx catalog node in
      Relalg.Relation.make v.Vec.schema (Vec.to_rows v))

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)
(* ------------------------------------------------------------------ *)

let join_method_name = function
  | Nested_loop -> "nested-loop"
  | Sort_merge -> "sort-merge"
  | Index_nl -> "index-nested-loop"
  | Hash -> "hash"

let join_kind_name = function Inner -> "inner" | Left_outer -> "left-outer"

(* One-line operator description, without children — the unit EXPLAIN and
   the [Explain] annotators build their renderings from. *)
let pp_bound ppf = function
  | Lit v -> Value.pp ppf v
  | Col c -> Sql.Pp.pp_col ppf c

let pp_bounds ppf (column, lo, hi) =
  match (lo, hi) with
  | Some (v, true), Some (v', true) when v = v' ->
      Fmt.pf ppf "%s = %a" column pp_bound v
  | lo, hi ->
      let side op ppf = function
        | None -> ()
        | Some (v, incl) ->
            Fmt.pf ppf " %s%s %a" op (if incl then "=" else "") pp_bound v
      in
      Fmt.pf ppf "%s%a%a" column (side ">") lo (side "<") hi

(* A nested predicate with its subquery elided (the subquery's plan is a
   child of the [Apply]); under [Per_key], the keys it is evaluated on. *)
let pp_apply_pred mode ppf (p, sp) =
  match sp with
  | None -> Sql.Pp.pp_predicate ppf p
  | Some sp ->
      (match p with
      | Cmp_subq (x, op, _) ->
          Fmt.pf ppf "%a %s (SELECT ...)" Sql.Pp.pp_scalar x (cmp_name op)
      | In_subq (x, _) -> Fmt.pf ppf "%a IN (SELECT ...)" Sql.Pp.pp_scalar x
      | Not_in_subq (x, _) ->
          Fmt.pf ppf "%a NOT IN (SELECT ...)" Sql.Pp.pp_scalar x
      | Exists _ -> Fmt.string ppf "EXISTS (SELECT ...)"
      | Not_exists _ -> Fmt.string ppf "NOT EXISTS (SELECT ...)"
      | Quant (x, op, qf, _) ->
          Fmt.pf ppf "%a %s %s (SELECT ...)" Sql.Pp.pp_scalar x (cmp_name op)
            (match qf with Any -> "ANY" | All -> "ALL")
      | Cmp _ | Cmp_outer _ -> assert false);
      if mode = Per_key then
        match sp.keys with
        | [] -> Fmt.string ppf " once"
        | keys ->
            Fmt.pf ppf " on %a" Fmt.(list ~sep:(any ", ") Sql.Pp.pp_col) keys

let label node =
  match node with
  | Scan name -> "Scan " ^ name
  | Index_scan { table; alias; column; lo; hi } ->
      Fmt.str "IndexScan %s%s on %a%s" table
        (if alias = table then "" else " as " ^ alias)
        pp_bounds (column, lo, hi)
        (if per_binding lo hi then " (per binding: probe or scan)" else "")
  | Rename (alias, _) -> "Rename as " ^ alias
  | Filter (preds, _) ->
      Fmt.str "Filter %a"
        Fmt.(list ~sep:(any " AND ") Sql.Pp.pp_predicate)
        preds
  | Project (cols, _) ->
      Fmt.str "Project %a" Fmt.(list ~sep:(any ", ") Sql.Pp.pp_col) cols
  | Distinct _ -> "Distinct"
  | Hash_distinct _ -> "HashDistinct"
  | Sort (cols, _) ->
      Fmt.str "Sort by %a" Fmt.(list ~sep:(any ", ") Sql.Pp.pp_col) cols
  | Join { method_; kind; cond; residual; _ } ->
      Fmt.str "%s %s join%s%a%a"
        (join_method_name method_)
        (join_kind_name kind)
        (if cond = [] then "" else " on ")
        Fmt.(
          list ~sep:(any " AND ") (fun ppf (l, op, r) ->
              Fmt.pf ppf "%a %s %a" Sql.Pp.pp_col l (cmp_name op) Sql.Pp.pp_col
                r))
        cond
        Fmt.(
          if residual = [] then any ""
          else fun ppf () ->
            Fmt.pf ppf " residual %a"
              (list ~sep:(any " AND ") Sql.Pp.pp_predicate)
              residual)
        ()
  | Group_agg { group_by; aggs; _ } | Hash_group_agg { group_by; aggs; _ } ->
      let name =
        match node with Hash_group_agg _ -> "HashGroupAgg" | _ -> "GroupAgg"
      in
      Fmt.str "%s by [%a] computing [%a]" name
        Fmt.(list ~sep:(any ", ") Sql.Pp.pp_col)
        group_by
        Fmt.(
          list ~sep:(any ", ") (fun ppf { fn; out_name } ->
              Fmt.pf ppf "%a AS %s" Sql.Pp.pp_agg fn out_name))
        aggs
  | Apply a ->
      Fmt.str "Apply %s: %a"
        (match a.mode with Per_row -> "per row" | Per_key -> "per key")
        Fmt.(list ~sep:(any " AND ") (pp_apply_pred a.mode))
        a.preds

let children = function
  | Scan _ | Index_scan _ -> []
  | Rename (_, input)
  | Filter (_, input)
  | Project (_, input)
  | Distinct input
  | Hash_distinct input
  | Sort (_, input) ->
      [ input ]
  | Join { left; right; _ } -> [ left; right ]
  | Group_agg { input; _ } | Hash_group_agg { input; _ } -> [ input ]
  | Apply { outer; preds; _ } ->
      outer :: List.filter_map (fun (_, sp) -> Option.map (fun s -> s.inner) sp)
                 preds

let rec pp ?(indent = 0) ppf node =
  Fmt.pf ppf "%s%s@." (String.make (indent * 2) ' ') (label node);
  List.iter (pp ~indent:(indent + 1) ppf) (children node)

let to_string node = Fmt.str "%a" (pp ~indent:0) node

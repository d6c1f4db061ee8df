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
   conditions may serve as sort-merge keys.  Plans stay printable
   (EXPLAIN); the executor compiles one once per execution — column
   references to positions, parameters to slots in the re-opening
   operators' binding frames — and then only opens operators, once or
   once per binding. *)

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

(* Group columns, then one "agg" column per aggregate. *)
let group_agg_schema s ~group_by ~aggs =
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
      group_agg_schema (output_schema catalog input) ~group_by ~aggs
  | Apply { outer; _ } -> output_schema catalog outer

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

(* A binding frame: the row an [Apply] or an index nested-loop join has
   bound for the inner plan it is about to re-open.  The operator sets it
   before each open; the inner plan's parameters read it. *)
type frame = Row.t ref

(* The frames a plan compiles under: the input schema and frame of each
   enclosing re-opening operator, innermost first. *)
type scope = (Schema.t * frame) list

let find_in schema (c : col_ref) = Schema.find_opt schema ?rel:c.table c.column

(* A parameter's slot, fixed at compile time: the innermost frame whose
   schema has the column, and the column's position there. *)
let slot scope (c : col_ref) =
  List.find_map
    (fun (schema, frame) -> Option.map (fun i -> (frame, i)) (find_in schema c))
    scope

let bound_slot scope c =
  match slot scope c with
  | Some s -> s
  | None -> errf "column %a is not bound" Sql.Pp.pp_col c

(* Inside a re-opened plan, a column [schema] lacks is a parameter (an
   ambiguous column is none: resolving it reports the ambiguity). *)
let param scope schema (c : col_ref) =
  if scope = [] then None
  else
    match find_in schema c with
    | None -> slot scope c
    | Some _ | (exception Schema.Ambiguous _) -> None

(* ------------------------------------------------------------------ *)
(* Predicate compilation                                               *)
(* ------------------------------------------------------------------ *)

(* A literal, a column of the row, or a parameter read from its frame
   each time the scalar is evaluated. *)
let compile_scalar scope schema = function
  | Lit v -> fun (_ : Row.t) -> v
  | Col c -> (
      match param scope schema c with
      | Some (frame, i) -> fun _ -> Row.get !frame i
      | None ->
          let i = find_col schema c in
          fun row -> Row.get row i)

(* A plan predicate is a comparison of columns and literals; nested
   predicates are planned as an [Apply]'s and never compile. *)
let comparison = function
  | Cmp (a, op, b) -> (a, op, b)
  | Cmp_outer _ -> errf "outer-join predicate must be a join condition"
  | Cmp_subq _ | In_subq _ | Not_in_subq _ | Exists _ | Not_exists _
  | Quant _ ->
      errf "nested predicate reached the physical planner"

let compile_predicate scope schema (p : predicate) : Row.t -> Truth.t =
  let a, op, b = comparison p in
  let fa = compile_scalar scope schema a
  and fb = compile_scalar scope schema b in
  fun row -> Eval.cmp_values op (fa row) (fb row)

(* A pair conjunction evaluated left to right, stopping at the first
   False and remembering an Unknown: False absorbs, so the result is
   [Truth.conjunction]'s, and since every compiled predicate is a pure
   comparison, a skipped one skips no page I/O.  Top-level and
   tail-recursive, so an evaluation allocates nothing. *)
let rec all_true fs l r acc =
  match fs with
  | [] -> acc
  | f :: rest -> (
      match f l r with
      | Truth.False -> Truth.False
      | Truth.True -> all_true rest l r acc
      | Truth.Unknown -> all_true rest l r Truth.Unknown)

(* A batch filter: a literal or a parameter is a value read per batch,
   anything else a column of the batch. *)
let vec_conjunction scope schema preds : Vec.sel_filter =
  let operand = function
    | Lit v -> Vec.Value (fun () -> v)
    | Col c -> (
        match param scope schema c with
        | Some (frame, i) -> Vec.Value (fun () -> Row.get !frame i)
        | None -> Vec.Column (find_col schema c))
  in
  Vec.compile_conjunction
    (List.map
       (fun p ->
         let a, op, b = comparison p in
         (operand a, op, operand b))
       preds)

(* ------------------------------------------------------------------ *)
(* Join compilation                                                    *)
(* ------------------------------------------------------------------ *)

(* Column references, null-safety flags and residual predicates compile
   alike whichever operator runs the join; these helpers take the input
   schemas, so every join method shares every semantic decision. *)

(* Where a join comparison reads an operand: a literal, an enclosing
   parameter, or a column of the left or of the right row. *)
type pair_operand =
  | Const of Value.t
  | Param of frame * int
  | Left of int
  | Right of int

(* A join's conditions and residual as comparisons, in order, their
   operands resolved: a condition's left column on the left schema and its
   right column on the right; a residual column on the joined schema, read
   from whichever row holds it, else a parameter.  The batch nested-loop
   join and the pair tests of the other joins compile from these, so they
   resolve every operand alike. *)
let pair_comparisons scope (lschema : Schema.t) (rschema : Schema.t) ~cond
    ~residual =
  let joined = Schema.append lschema rschema in
  let split = Schema.arity lschema in
  let operand = function
    | Lit v -> Const v
    | Col c -> (
        match param scope joined c with
        | Some (frame, i) -> Param (frame, i)
        | None ->
            let i = find_col joined c in
            if i < split then Left i else Right (i - split))
  in
  List.map
    (fun (lc, op, rc) ->
      (Left (find_col lschema lc), op, Right (find_col rschema rc)))
    cond
  @ List.map
      (fun p ->
        let a, op, b = comparison p in
        (operand a, op, operand b))
      residual

(* A join's conditions and residual as one short-circuit test on the
   (left, right) pair; no joined row is built to test a pair. *)
let compile_pair_conjunction scope (lschema : Schema.t) (rschema : Schema.t)
    ~cond ~residual : Row.t -> Row.t -> Truth.t =
  let read = function
    | Const v -> fun _ _ -> v
    | Param (frame, i) -> fun _ _ -> Row.get !frame i
    | Left i -> fun l _ -> Row.get l i
    | Right i -> fun _ r -> Row.get r i
  in
  let compare = function
    | Left li, op, Right ri ->
        fun l r -> Eval.cmp_values op (Row.get l li) (Row.get r ri)
    | a, op, b ->
        let fa = read a and fb = read b in
        fun l r -> Eval.cmp_values op (fa l r) (fb l r)
  in
  match
    List.map compare (pair_comparisons scope lschema rschema ~cond ~residual)
  with
  | [] -> fun _ _ -> Truth.True
  | [ f ] -> f
  | fs -> fun l r -> all_true fs l r Truth.True

(* Split an equi-joinable condition list: equality conditions become keys
   (with their [<=>] null-safety flags), the rest fold into the residual.
   Returns [(left_key, right_key, null_safe, residual_fn, joined_schema)].
   @raise Plan_error when no equality condition exists. *)
let equi_join_parts ~method_name scope (lschema : Schema.t)
    (rschema : Schema.t) ~cond ~residual =
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
      Some (compile_pair_conjunction scope lschema rschema ~cond:rest ~residual)
  in
  (left_key, right_key, null_safe, residual_opt, Schema.append lschema rschema)

(* Group keys, aggregate specs and output schema against the input
   schema. *)
let group_agg_parts (ischema : Schema.t) ~group_by ~aggs =
  let group_key = List.map (find_col ischema) group_by in
  let agg_specs =
    List.map
      (fun { fn; _ } ->
        { Iterator.fn; arg = Option.map (find_col ischema) (agg_arg fn) })
      aggs
  in
  (group_key, agg_specs, group_agg_schema ischema ~group_by ~aggs)

(* ------------------------------------------------------------------ *)
(* Compiled operators                                                  *)
(* ------------------------------------------------------------------ *)

(* A plan runs in two steps.  [compile], once per execution, resolves
   every schema, column position, catalog handle, predicate and
   parameter slot.  [open_] then builds the operator's iterator state and
   does its eager work (sorts, materializations, hash builds) each time
   it runs: once, or once per binding under an [Apply] or an index
   nested-loop join. *)
type 'a compiled = { schema : Schema.t; open_ : unit -> 'a }

(* The same operator with [f] applied to each opened iterator. *)
let map_open c f = { c with open_ = (fun () -> f (c.open_ ())) }

(* One execution's value lists: an uncorrelated [IN]/[ANY]/[ALL]/scalar
   subquery under a per-row [Apply] is materialized at first use, re-read
   through the pool on every evaluation and deleted when the execution
   ends.  Each such predicate holds its cell from compile time; equal
   subqueries share one, so a list is materialized once however many
   blocks evaluate it. *)
type execution = {
  mutable lists : (query * Storage.Heap_file.t option ref) list;
}

let value_list ex sub =
  match List.assoc_opt sub ex.lists with
  | Some cell -> cell
  | None ->
      let cell = ref None in
      ex.lists <- (sub, cell) :: ex.lists;
      cell

(* An IndexScan streams a B-tree probe: O(height) page reads down to the
   start leaf, then a leaf walk with data pages fetched through the pool —
   output arrives in key order (the leaf level is sorted).  A range bounded
   by a parameter takes the access path the planner takes for a literal:
   the probe when, for the bound value, it is estimated cheaper than
   reading the relation, else the heap, kept to the bounds. *)
let index_scan catalog scope ~table ~alias ~column ~lo ~hi :
    Iterator.t compiled =
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
  let heap = Catalog.heap catalog table in
  let stats = Option.map snd (Catalog.column_stats catalog table column) in
  let schema = Schema.rename_rel heap_schema alias in
  let per_binding = per_binding lo hi in
  let bound =
    Option.map (function
      | Lit v, incl -> ((fun () -> v), incl)
      | Col c, incl ->
          let frame, i = bound_slot scope c in
          ((fun () -> Row.get !frame i), incl))
  in
  let lo = bound lo and hi = bound hi in
  let resolve = Option.map (fun (v, incl) -> (v (), incl)) in
  let sel op = function
    | None -> 1.
    | Some (v, _) -> (
        match stats with
        | Some cs -> Storage.Stats.literal_selectivity cs op v
        | None -> Storage.Stats.default_range_selectivity)
  in
  let open_ () =
    let lo = resolve lo and hi = resolve hi in
    if
      per_binding
      && not
           (Catalog.probe_beats_scan catalog table index
              ~sel:(sel Ge lo *. sel Le hi))
    then
      let within op = function
        | None -> fun _ -> true
        | Some (v, incl) ->
            let op = if incl then op else if op = Ge then Gt else Lt in
            fun row -> Eval.cmp_values op (Row.get row key_col) v = Truth.True
      in
      let above = within Ge lo and below = within Le hi in
      Iterator.filter
        ~pred:(fun row -> Truth.of_bool (above row && below row))
        { (Iterator.scan heap) with schema }
    else
      let next = Storage.Btree.range index ?lo ?hi () in
      match (lo, hi) with
      | Some (v, true), Some (v', true) when Value.equal v v' ->
          (* an equality probe is one lookup: its matches are fetched
             together, at the first pull *)
          let fetched = ref false and pending = ref [] in
          let next () =
            if not !fetched then begin
              fetched := true;
              pending := Iterator.to_rows { schema; next }
            end;
            match !pending with
            | [] -> None
            | r :: rest ->
                pending := rest;
                Some r
          in
          { Iterator.schema; next }
      | _ -> { Iterator.schema; next }
  in
  { schema; open_ }

(* Index nested loops: the right side, an [Index_scan] whose bound reads
   the left row as a parameter, is re-opened under each left row — as
   [Apply] re-opens an inner plan — and one probe's matches are fetched
   before the first is returned. *)
let index_nl_join ~child scope ~outer_join ~cond ~residual ~right
    (left : Iterator.t compiled) : Iterator.t compiled =
  (match (right, cond) with
  | Index_scan _, [] -> ()
  | _ ->
      errf
        "index join requires an index scan on the right and no join \
         condition");
  let frame = ref [||] in
  let right = child ((left.schema, frame) :: scope) right in
  let residual =
    if residual = [] then None
    else
      Some
        (compile_pair_conjunction scope left.schema right.schema ~cond:[]
           ~residual)
  in
  let probe l =
    frame := l;
    Iterator.to_rows (right.open_ ())
  in
  {
    (map_open left
       (Iterator.index_nested_loop_join ~outer_join ?residual ~probe
          ~right_schema:right.schema))
    with
    schema = Schema.append left.schema right.schema;
  }

(* A nested-loop join's inner: it must be stored so it can be re-scanned.
   Scans use the stored heap; other subtrees are compiled by [child] as
   rows and materialized at each open (their pages written and the writes
   counted); a re-open (under an [Apply]) first deletes the previous
   open's heap, whose rescans are over.  Returns the heap to open and the
   inner's schema. *)
let nl_inner ~(child : scope -> node -> Iterator.t compiled) catalog scope
    right =
  let stored name alias =
    let heap = Catalog.heap catalog name in
    ( (fun () -> heap),
      Schema.rename_rel (Storage.Heap_file.schema heap) alias )
  in
  match right with
  | Scan name -> stored name name
  | Rename (alias, Scan name) -> stored name alias
  | _ ->
      let r = child scope right in
      let previous = ref None in
      let open_ () =
        Option.iter Storage.Heap_file.delete !previous;
        let heap = Iterator.materialize (Catalog.pager catalog) (r.open_ ()) in
        previous := Some heap;
        heap
      in
      (open_, r.schema)

(* A sort's run, read by a scan; a re-open (under an [Apply]) first
   deletes the previous open's run, as [nl_inner] deletes its heap. *)
let sorted pager ?dedup ~key (i : Iterator.t compiled) : Iterator.t compiled =
  let previous = ref None in
  let open_ () =
    Option.iter Storage.Heap_file.delete !previous;
    let run = Iterator.sort_run pager ?dedup ~key (i.open_ ()) in
    previous := Some run;
    Iterator.scan run
  in
  { i with open_ }

(* ------------------------------------------------------------------ *)
(* Apply: the dependent join                                          *)
(* ------------------------------------------------------------------ *)

let runtime_error msg = raise (Eval.Runtime_error msg)

(* One nested predicate, compiled: given [result], its subquery's result
   rows for an input row, its truth over that row. *)
let nested_truth scope schema ~inner_schema (p : predicate) :
    (Row.t -> Row.t list) -> Row.t -> Truth.t =
  let operand a = compile_scalar scope schema a in
  let single_column () =
    if Schema.arity inner_schema <> 1 then
      runtime_error "subquery must return a single column"
  in
  let column result row =
    let rows = result row in
    single_column ();
    List.map (fun r -> Row.get r 0) rows
  in
  match p with
  | Cmp_subq (a, op, _) -> (
      let x = operand a in
      fun result row ->
        let x = x row in
        let rows = result row in
        single_column ();
        match rows with
        | [] -> Eval.cmp_values op x Value.Null
        | [ r ] -> Eval.cmp_values op x (Row.get r 0)
        | _ :: _ :: _ ->
            runtime_error "scalar subquery returned more than one row")
  | In_subq (a, _) ->
      let x = operand a in
      fun result row -> Eval.in_values (x row) (column result row)
  | Not_in_subq (a, _) ->
      let x = operand a in
      fun result row -> Truth.not_ (Eval.in_values (x row) (column result row))
  | Exists _ -> (
      fun result row ->
        match result row with [] -> Truth.False | _ -> Truth.True)
  | Not_exists _ -> (
      fun result row ->
        match result row with [] -> Truth.True | _ -> Truth.False)
  | Quant (a, op, qf, _) ->
      let x = operand a in
      fun result row -> Eval.quant_values op qf (x row) (column result row)
  | Cmp _ | Cmp_outer _ -> assert false

(* Per key: each distinct key tuple of [rows] evaluated once, in key order
   (NULL first), under the first row that carries it; NULL keys share one
   tuple, Int/Float keys that compare equal share one. *)
let per_key_results rows ~key_of ~eval =
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

(* A correlation key over an input row: each column read from the row
   itself or, failing that, from an enclosing frame. *)
let compile_key scope schema keys : Row.t -> Row.t =
  let reads =
    Array.of_list (List.map (fun c -> compile_scalar scope schema (Col c)) keys)
  in
  fun row -> Array.map (fun read -> read row) reads

(* Every truth evaluated, in order, with no short-circuit: the result is
   [Truth.conjunction]'s over all of them. *)
let rec conjoin_all truths row i acc =
  if i = Array.length truths then acc
  else conjoin_all truths row (i + 1) (Truth.and_ acc (truths.(i) row))

(* An [Apply] compiles its predicates and inner plans once.  Its frame
   holds the input row an inner plan is re-opened under.  Each predicate
   becomes a function of the rows an open has drained (per key; none per
   row) returning its truth over a row: per row, that truth is fixed at
   compile time, so an open builds only the filter. *)
let apply ~child ex catalog scope (a : apply) (outer : Iterator.t compiled) :
    Iterator.t compiled =
  let schema = outer.schema in
  let frame = ref [||] in
  let inner_scope = (schema, frame) :: scope in
  let pred (p, sp) : Row.t list -> Row.t -> Truth.t =
    match (sp, p) with
    | None, Cmp _ ->
        let truth = compile_predicate scope schema p in
        fun _ -> truth
    | None, _ ->
        fun _ _ ->
          runtime_error "outer-join predicate is not valid in a source query"
    | Some sp, _ -> (
        let inner = child inner_scope sp.inner in
        let rerun row =
          frame := row;
          Iterator.to_rows (inner.open_ ())
        in
        let truth = nested_truth scope schema ~inner_schema:inner.schema p in
        match (a.mode, sp.keys, p) with
        | Per_row, _ :: _, _ | Per_row, [], (Exists _ | Not_exists _) ->
            let truth = truth rerun in
            fun _ -> truth
        | Per_row, [], _ ->
            (* An uncorrelated value list is materialized at first use
               and re-read through the pool on every evaluation. *)
            let cell = value_list ex (Option.get (predicate_subquery p)) in
            let heap () =
              match !cell with
              | Some heap -> heap
              | None ->
                  let rows = Iterator.to_rows (inner.open_ ()) in
                  if Schema.arity inner.schema <> 1 then
                    runtime_error "subquery must return a single column";
                  let heap =
                    Storage.Heap_file.of_relation (Catalog.pager catalog)
                      (Relalg.Relation.make inner.schema rows)
                  in
                  cell := Some heap;
                  heap
            in
            let truth =
              truth (fun _ -> Iterator.to_rows (Iterator.scan (heap ())))
            in
            fun _ -> truth
        | Per_key, [], _ ->
            fun _ ->
              let once = lazy (Iterator.to_rows (inner.open_ ())) in
              truth (fun _ -> Lazy.force once)
        | Per_key, keys, _ ->
            let key_of = compile_key scope schema keys in
            fun rows -> truth (per_key_results rows ~key_of ~eval:rerun))
  in
  let preds = List.map pred a.preds in
  let conjoin truths =
    let truths = Array.of_list truths in
    fun row -> conjoin_all truths row 0 Truth.True
  in
  let open_ =
    match a.mode with
    | Per_row ->
        let pred = conjoin (List.map (fun pred -> pred []) preds) in
        fun () -> Iterator.filter ~pred (outer.open_ ())
    | Per_key ->
        (* every subquery is evaluated before the first row is filtered *)
        fun () ->
          let rows = Iterator.to_rows (outer.open_ ()) in
          let pred = conjoin (List.map (fun pred -> pred rows) preds) in
          Iterator.filter ~pred (Iterator.of_rows schema rows)
  in
  { schema; open_ }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* An engine name, accepted and ignored: every plan runs on the one
   executor below.  It remains for callers that still name one (the
   workload benchmark's specs). *)
type engine = Tuple | Vectorized

let engine_name = function Tuple -> "tuple" | Vectorized -> "vectorized"

let engine_of_string = function
  | "tuple" -> Some Tuple
  | "vectorized" | "vec" -> Some Vectorized
  | _ -> None

(* An observer intercepts every open of every operator: it receives the
   plan node and a thunk that opens it (including the eager work of sorts
   and hash builds), and returns the operator to use — usually the opened
   one wrapped with instrumentation.  [Explain] uses this to attach
   per-operator metrics and trace events without the executor knowing
   about either.  A row operator is observed through [rows], every other
   through [batches]. *)
type observer = {
  rows : node -> (unit -> Iterator.t) -> Iterator.t;
  batches : node -> (unit -> Vec.t) -> Vec.t;
}

let observed observe node (c : 'a compiled) =
  match observe with
  | None -> c
  | Some f -> { c with open_ = (fun () -> f node c.open_) }

(* One executor, two kinds of operator.  Scans, filters, projections,
   renames, nested-loop and hash joins, hash DISTINCT and hash grouping
   run batch-at-a-time through [Vec] ([compile_vec]); index scans, sorts,
   sort-merge and index nested-loop joins, sorted grouping and [Apply]
   are row operators ([compile_rows]).  A projection or a global
   aggregate (a hash grouping with no key) takes the kind of its input,
   so nested iteration's re-opened inner plans — a projection or a COUNT
   over an index probe, per binding — run on rows throughout.  Each
   operator compiles its inputs as the kind it consumes, so an adapter
   stands only where a batch operator meets a row operator — never
   between two row operators.

   A scan requests a chunk's pages when it hands the chunk out, unless
   its rows are consumed one at a time: through [Vec.to_tuple] by a row
   operator or by the materialization of a nested-loop inner, or by a
   nested-loop join's left side.  Then ([~rowwise]) the pages
   go out unrequested, through any filters, projections and renames
   between, and the consumer requests each at the row that first needs
   it — the request order of a row-by-row scan, relative to the
   consumer's own page traffic. *)
let rec produces_rows = function
  | Index_scan _ | Distinct _ | Sort _ | Group_agg _ | Apply _
  | Join { method_ = Index_nl | Sort_merge; _ } ->
      true
  | Project (_, input) | Hash_group_agg { group_by = []; input; _ } ->
      produces_rows input
  | Scan _ | Rename _ | Filter _ | Hash_distinct _ | Hash_group_agg _
  | Join { method_ = Nested_loop | Hash; _ } ->
      false

let rec compile_rows ?observe ex (scope : scope) (catalog : Catalog.t)
    (node : node) : Iterator.t compiled =
  let child scope n = compile_rows ?observe ex scope catalog n in
  let input n = child scope n in
  let row c = observed (Option.map (fun o -> o.rows) observe) node c in
  let pager = Catalog.pager catalog in
  let batches () =
    map_open
      (compile_vec ?observe ~rowwise:true ex scope catalog node)
      Vec.to_tuple
  in
  match node with
  | Index_scan { table; alias; column; lo; hi } ->
      row (index_scan catalog scope ~table ~alias ~column ~lo ~hi)
  | Distinct i ->
      let i = input i in
      row
        (sorted pager ~dedup:Storage.External_sort.Drop_duplicates
           ~key:(List.init (Schema.arity i.schema) Fun.id)
           i)
  | Sort (cols, i) ->
      let i = input i in
      row (sorted pager ~key:(List.map (find_col i.schema) cols) i)
  | Join { method_ = Index_nl; kind; cond; residual; left; right } ->
      row
        (index_nl_join ~child scope ~outer_join:(kind = Left_outer) ~cond
           ~residual ~right (input left))
  | Join { method_ = Sort_merge; kind; cond; residual; left; right } ->
      let left = input left and right = input right in
      let left_key, right_key, null_safe, residual, schema =
        equi_join_parts ~method_name:"sort-merge" scope left.schema
          right.schema ~cond ~residual
      in
      let open_ () =
        let lit = left.open_ () in
        let rit = right.open_ () in
        Iterator.merge_join ~outer_join:(kind = Left_outer) ~null_safe
          ?residual ~left_key ~right_key lit rit
      in
      row { schema; open_ }
  | Group_agg { group_by; aggs; input = i } ->
      let i = input i in
      let group_key, aggs, schema = group_agg_parts i.schema ~group_by ~aggs in
      row
        { (map_open i (Iterator.group_agg_sorted ~group_key ~aggs ~schema)) with
          schema }
  | Hash_group_agg { group_by = []; aggs; input = i } when produces_rows i ->
      let i = input i in
      let _, aggs, schema = group_agg_parts i.schema ~group_by:[] ~aggs in
      row { (map_open i (Iterator.global_agg ~aggs ~schema)) with schema }
  | Project (cols, i) when produces_rows i ->
      let i = input i in
      let positions = Array.of_list (List.map (find_col i.schema) cols) in
      let schema = Schema.project i.schema (Array.to_list positions) in
      let project (it : Iterator.t) =
        let next () =
          Option.map (fun r -> Row.project_positions r positions) (it.next ())
        in
        { Iterator.schema; next }
      in
      row { (map_open i project) with schema }
  | Apply a -> row (apply ~child ex catalog scope a (input a.outer))
  | Scan _ | Rename _ | Filter _ | Project _ | Hash_distinct _
  | Hash_group_agg _
  | Join { method_ = Nested_loop | Hash; _ } ->
      batches ()

and compile_vec ?observe ?(rowwise = false) ex scope (catalog : Catalog.t)
    (node : node) : Vec.t compiled =
  let input ?rowwise n = compile_vec ?observe ?rowwise ex scope catalog n in
  let batches c = observed (Option.map (fun o -> o.batches) observe) node c in
  (* [cols]: the projection a hash join's gather is fused with *)
  let hash_join ?cols ~kind ~cond ~residual left right =
    let lv = input left in
    let rv = input right in
    let left_key, right_key, null_safe, residual, joined =
      equi_join_parts ~method_name:"hash" scope lv.schema rv.schema ~cond
        ~residual
    in
    let project = Option.map (List.map (find_col joined)) cols in
    let open_ () =
      let l = lv.open_ () in
      let r = rv.open_ () in
      Vec.hash_join ~outer_join:(kind = Left_outer) ~null_safe ?residual
        ?project ~left_key ~right_key l r
    in
    batches
      { schema = Option.fold ~none:joined ~some:(Schema.project joined) project;
        open_ }
  in
  let rows () =
    map_open (compile_rows ?observe ex scope catalog node) Vec.of_tuple
  in
  match node with
  | Project (_, i) | Hash_group_agg { group_by = []; input = i; _ }
    when produces_rows i ->
      rows ()
  | Scan name ->
      let heap = Catalog.heap catalog name in
      let schema = Schema.rename_rel (Storage.Heap_file.schema heap) name in
      let open_ () =
        Vec.with_schema (Vec.scan ~eager:(not rowwise) heap) schema
      in
      batches { schema; open_ }
  | Rename (alias, i) ->
      let v = input ~rowwise i in
      let schema = Schema.rename_rel v.schema alias in
      batches { (map_open v (fun v -> Vec.with_schema v schema)) with schema }
  | Filter (preds, i) ->
      let v = input ~rowwise i in
      batches
        (map_open v (Vec.filter ~pred:(vec_conjunction scope v.schema preds)))
  | Project (cols, Join { method_ = Hash; kind; cond; residual; left; right })
    when observe = None ->
      (* Late materialization: fuse the projection into the hash join's
         gather so dropped columns are never copied.  Skipped under
         [observe] to keep per-node EXPLAIN ANALYZE accounting intact. *)
      hash_join ~cols ~kind ~cond ~residual left right
  | Project (cols, i) ->
      let v = input ~rowwise i in
      let idxs = List.map (find_col v.schema) cols in
      let schema = Schema.project v.schema idxs in
      let positions = Array.of_list idxs in
      batches { (map_open v (Vec.project ~schema ~positions)) with schema }
  | Hash_distinct i -> batches (map_open (input i) Vec.hash_distinct)
  | Join { method_ = Hash; kind; cond; residual; left; right } ->
      hash_join ~kind ~cond ~residual left right
  | Join { method_ = Nested_loop; kind; cond; residual; left; right } ->
      let lv = input ~rowwise:true left in
      let right_heap, rschema =
        nl_inner
          ~child:(fun scope n -> compile_rows ?observe ex scope catalog n)
          catalog scope right
      in
      (* the left row the inner is rescanned under; the join's left
         operands read it *)
      let frame = ref [||] in
      let operand = function
        | Const v -> Vec.Value (fun () -> v)
        | Param (f, i) -> Vec.Value (fun () -> Row.get !f i)
        | Left i -> Vec.Value (fun () -> Row.get !frame i)
        | Right i -> Vec.Column i
      in
      let pred =
        Vec.compile_conjunction
          (List.map
             (fun (a, op, b) -> (operand a, op, operand b))
             (pair_comparisons scope lv.schema rschema ~cond ~residual))
      in
      let schema = Schema.append lv.schema rschema in
      let open_ () =
        let l = lv.open_ () in
        Vec.nested_loop_join ~outer_join:(kind = Left_outer) ~schema ~frame ~pred
          l (right_heap ())
      in
      batches { schema; open_ }
  | Hash_group_agg { group_by; aggs; input = i } ->
      let v = input i in
      let group_key, aggs, schema = group_agg_parts v.schema ~group_by ~aggs in
      batches
        { (map_open v (Vec.hash_group_agg ~group_key ~aggs ~schema)) with schema }
  | Index_scan _ | Distinct _ | Sort _ | Group_agg _ | Apply _
  | Join { method_ = Index_nl | Sort_merge; _ } ->
      rows ()

(* Compile, run to completion, then delete the value lists nested
   iteration materialized. *)
let run ?observe catalog node : Relalg.Relation.t =
  let ex = { lists = [] } in
  let v = (compile_vec ?observe ex [] catalog node).open_ () in
  let result = Relalg.Relation.make v.Vec.schema (Vec.to_rows v) in
  List.iter
    (fun (_, cell) -> Option.iter Storage.Heap_file.delete !cell)
    ex.lists;
  result

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

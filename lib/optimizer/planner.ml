(* Physical planning of canonical queries and transformed programs.

   This is the "query optimizer such as [SEL 79]" role the paper hands its
   canonical queries to: a left-deep join tree in FROM order with a
   cost-based choice between nested-loop and sort-merge for every join,
   single-table restrictions pushed below joins, interesting orders tracked
   so that born-sorted temp tables (the §7.4 savings) skip re-sorting, and
   GROUP BY / DISTINCT implemented by sorting unless the input already has
   the order.

   Every strategy reaches the executor as [segments]: nested iteration's
   or batched bindings' one plan, or a transformed program, whose temp
   definitions are each planned, executed and registered in the catalog
   (with their column names and order metadata) before the main query is
   planned.  [run_segments], [check_segments] and [explain_segments] walk
   them in one loop.  Measured page I/O of the whole pipeline is the
   experimental counterpart of the §7 cost model. *)

module Value = Relalg.Value
module Schema = Relalg.Schema
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
open Sql.Ast

exception Planning_error of string

let errf fmt = Fmt.kstr (fun s -> raise (Planning_error s)) fmt

type join_choice = Auto | Force_nl | Force_merge | Force_hash

(* [Paper1987] reproduces the paper: sort-based DISTINCT/GROUP BY, joins
   costed on page I/O alone.  [Hybrid] additionally considers the
   beyond-the-paper hash operators under the blended I/O+CPU model of
   [Cost]; hash paths are only taken when their build state fits the
   pool, so page-I/O accounting stays honest. *)
type mode = Paper1987 | Hybrid

let mode_name = function Paper1987 -> "paper1987" | Hybrid -> "hybrid"

(* The one place a mode name is parsed (CLI flags, the server protocol):
   anything unrecognized is [None] so every surface can fail loudly instead
   of falling back to a default the user didn't ask for. *)
let mode_of_string s =
  match String.lowercase_ascii s with
  | "paper1987" | "paper" -> Some Paper1987
  | "hybrid" -> Some Hybrid
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Lowering state                                                      *)
(* ------------------------------------------------------------------ *)

type state = {
  node : Exec.Plan.node;
  tables : string list; (* aliases joined so far *)
  schema : Schema.t;
  sorted : col_ref list option; (* current physical order, if known *)
  est_rows : float;
  est_pages : float;
}

(* The FROM aliases of the block being lowered ([locals]) a predicate
   reads.  A column of any other alias is a parameter: an enclosing
   block's column, bound when an [Apply] re-opens the plan, so it
   constrains nothing here and compares like a literal. *)
let pred_tables ~locals p =
  let scalar_tables = function
    | Col { table = Some t; _ } when List.mem t locals -> [ t ]
    | Col _ | Lit _ -> []
  in
  match p with
  | Cmp (a, _, b) | Cmp_outer (a, _, b) -> scalar_tables a @ scalar_tables b
  | Cmp_subq _ | In_subq _ | Not_in_subq _ | Exists _ | Not_exists _
  | Quant _ ->
      errf "nested predicate reached the planner (transform first)"

(* Planner estimates use Kim's ceilinged-log convention (whole merge
   passes), matching the Figure-1 arithmetic. *)
let sort_cost ~b p = Cost.sort_cost ~rounding:Ceil ~b p

(* ------------------------------------------------------------------ *)
(* Building one join step                                              *)
(* ------------------------------------------------------------------ *)

(* A pushed-down filter a B-tree can answer: a comparison of an indexed
   column of [f] with a literal or a parameter.  Returns the probe
   bounds.  [Ne] needs both
   complements and [Eq_null] would have to match the NULL keys the tree
   does not store, so neither is indexable; a strict comparison against a
   NULL literal probes with a NULL bound, which correctly matches
   nothing. *)
let indexable_filter catalog (f : from_item) (p : predicate) =
  let consider (c : col_ref) op (v : scalar) =
    match Estimate.index_on catalog f c with
    | None -> None
    | Some (idx, _) ->
        let bounds =
          match op with
          | Eq -> Some (Some (v, true), Some (v, true))
          | Lt -> Some (None, Some (v, false))
          | Le -> Some (None, Some (v, true))
          | Gt -> Some (Some (v, false), None)
          | Ge -> Some (Some (v, true), None)
          | Ne | Eq_null -> None
        in
        Option.map (fun (lo, hi) -> (c.column, idx, lo, hi)) bounds
  in
  let param c = Estimate.is_param f c in
  match p with
  | Cmp (Col c, op, (Lit _ as v)) -> consider c op v
  | Cmp ((Lit _ as v), op, Col c) -> consider c (flip_cmp op) v
  | Cmp (Col c, op, (Col p as v)) when param p && not (param c) ->
      consider c op v
  | Cmp ((Col p as v), op, Col c) when param p && not (param c) ->
      consider c (flip_cmp op) v
  | _ -> None

(* Make a base state for FROM item [f], pushing its single-table filters.
   When one of them compares an indexed column with a literal and the
   probe is estimated cheaper than the full scan, the access path becomes
   an [Index_scan] (the remaining filters stay above it).  A range against
   a parameter always does: the scan decides per binding, so its rows come
   in no known order. *)
let base_state catalog (f : from_item) (filters : predicate list) : state =
  let alias = from_alias f in
  let scan =
    if String.equal alias f.rel then Exec.Plan.Scan f.rel
    else Exec.Plan.Rename (alias, Exec.Plan.Scan f.rel)
  in
  let schema = Exec.Plan.output_schema catalog scan in
  let rows = float_of_int (Catalog.tuples catalog f.rel) in
  let pages = float_of_int (Catalog.pages catalog f.rel) in
  let selectivity = Estimate.filter_selectivity catalog (Some f) in
  let heap_order =
    Option.map
      (List.map (fun i ->
           let c = Schema.column schema i in
           { table = Some c.rel; column = c.name }))
      (Catalog.sorted_on catalog f.rel)
  in
  let filtered =
    ( (if filters = [] then scan else Exec.Plan.Filter (filters, scan)),
      (if filters = [] then rows
       else Float.max 1. (rows *. selectivity filters)),
      pages,
      heap_order )
  in
  let indexed =
    List.find_map
      (fun p ->
        match indexable_filter catalog f p with
        | Some probe -> Some (p, probe)
        | None -> None)
      filters
  in
  let node, rows, est_pages, sorted =
    match indexed with
    | Some (p, (column, idx, lo, hi)) ->
        let sel = selectivity [ p ] in
        let matched = Float.max 1. (rows *. sel) in
        let per_binding = Exec.Plan.per_binding lo hi in
        if per_binding || Catalog.probe_beats_scan catalog f.rel idx ~sel
        then begin
          let probe =
            Exec.Plan.Index_scan { table = f.rel; alias; column; lo; hi }
          in
          let rest = List.filter (fun p' -> p' != p) filters in
          let node =
            if rest = [] then probe else Exec.Plan.Filter (rest, probe)
          in
          ( node,
            Float.max 1. (matched *. selectivity rest),
            Estimate.est_pages catalog ~rows:matched schema,
            (* B-tree leaves stream in key order *)
            if per_binding then None
            else Some [ { table = Some alias; column } ] )
        end
        else filtered
    | None -> filtered
  in
  {
    node;
    tables = [ alias ];
    schema;
    sorted;
    est_rows = rows;
    est_pages;
  }

(* Split the conditions that connect [left] with table [alias]. *)
let connecting_conds ~locals conds ~left_tables ~alias =
  List.partition
    (fun p ->
      let tabs = List.sort_uniq String.compare (pred_tables ~locals p) in
      List.mem alias tabs
      && List.for_all (fun t -> t = alias || List.mem t left_tables) tabs
      && List.exists (fun t -> t <> alias) tabs)
    conds

(* Normalize a connecting condition into (left_col, op, right_col) with the
   right side on [alias]. *)
let orient_cond ~alias = function
  | Cmp (Col a, op, Col b) | Cmp_outer (Col a, op, Col b) ->
      if a.table = Some alias then (b, flip_cmp op, a)
      else if b.table = Some alias then (a, op, b)
      else errf "condition does not touch the joined table"
  | _ -> errf "join condition must compare two columns"

let join_step catalog ~(force : join_choice) ~(mode : mode) (left : state)
    (right_f : from_item) (conds : predicate list) (filters : predicate list) :
    state =
  let alias = from_alias right_f in
  let right = base_state catalog right_f filters in
  let outer_join = List.exists (function Cmp_outer _ -> true | _ -> false) conds in
  (if outer_join then
     (* Generated outer joins always preserve the accumulated left side. *)
     List.iter
       (function
         | Cmp_outer (Col l, _, _) when List.mem (Option.get l.table) left.tables
           ->
             ()
         | Cmp_outer _ -> errf "outer-join predicate must preserve the left side"
         | _ -> ())
       conds);
  let oriented = List.map (orient_cond ~alias) conds in
  let eq_conds =
    (* Null-safe equality joins partition and sort exactly like strict
       equality (Value.compare groups NULLs together), so merge and hash
       methods apply to both; the NULL-match semantics live in the
       operators' per-column strictness flags. *)
    List.filter (fun (_, op, _) -> op = Eq || op = Eq_null) oriented
  in
  let b = Storage.Pager.buffer_pages (Catalog.pager catalog) in
  (* Cost estimates for the two methods. *)
  let nl_cost =
    let rescan =
      if right.est_pages <= float_of_int (b - 1) then right.est_pages
      else left.est_rows *. right.est_pages
    in
    left.est_pages +. rescan
  in
  let left_key = List.map (fun (l, _, _) -> l) eq_conds in
  let right_key = List.map (fun (_, _, r) -> r) eq_conds in
  let left_sorted = left.sorted <> None && left.sorted = Some left_key in
  let right_sorted = right.sorted <> None && right.sorted = Some right_key in
  let merge_cost =
    if eq_conds = [] then infinity
    else
      (if left_sorted then 0. else sort_cost ~b left.est_pages)
      +. (if right_sorted then 0. else sort_cost ~b right.est_pages)
      +. left.est_pages +. right.est_pages
  in
  (* Index path (inner joins only): one equality condition probes an
     indexed base-table column; every other condition and any pushed right-
     side filter becomes a residual applied to the fetched matches.  Under a
     LEFT OUTER join moving the restriction above the join would change
     semantics — the very trap §5.2 warns about — so the index path is
     never taken there when restrictions exist. *)
  let index_candidate =
    if outer_join && (filters <> [] || List.length oriented > 1) then None
    else
      List.find_map
        (fun (lc, op, rc) ->
          if op <> Eq then None
          else
            Option.map
              (fun (p : Estimate.probe) ->
                ((lc, op, rc), left.est_pages +. (left.est_rows *. p.probe_cost)))
              (Estimate.index_probe catalog right_f rc))
        oriented
  in
  let method_ =
    match force with
    | Force_hash when eq_conds <> [] -> `Hash
    | Force_merge when eq_conds <> [] -> `Merge
    | Force_merge | Force_nl | Force_hash -> `Nl
    | Auto -> (
        (* Paper1987 ranks on page I/O alone (the paper's model); Hybrid
           re-costs every method under the blended I/O+CPU model and adds
           the hash path when its build side fits the pool. *)
        let nl_c, merge_c, hash_c =
          match mode with
          | Paper1987 -> (nl_cost, merge_cost, infinity)
          | Hybrid ->
              ( Cost.nl_join_blended ~io:nl_cost ~ni:left.est_rows
                  ~nj:right.est_rows,
                (if eq_conds = [] then infinity
                 else
                   Cost.merge_join_blended ~b ~sort_left:(not left_sorted)
                     ~sort_right:(not right_sorted) ~pi:left.est_pages
                     ~pj:right.est_pages ~ni:left.est_rows ~nj:right.est_rows
                     ()),
                if eq_conds = [] || right.est_pages > float_of_int (b - 1)
                then infinity
                else
                  Cost.hash_join_blended ~pi:left.est_pages
                    ~pj:right.est_pages ~ni:left.est_rows ~nj:right.est_rows )
        in
        let best_of_two = if merge_c < nl_c then `Merge else `Nl in
        let best_cost = Float.min merge_c nl_c in
        let best = if hash_c < best_cost then `Hash else best_of_two in
        let best_cost = Float.min hash_c best_cost in
        match index_candidate with
        | Some (cond, c) when c < best_cost -> `Index cond
        | _ -> best)
  in
  let use_merge = method_ = `Merge in
  let kind = if outer_join then Exec.Plan.Left_outer else Exec.Plan.Inner in
  let est_rows =
    Estimate.join_rows catalog (Some right_f) ~left_rows:left.est_rows
      ~right_rows:right.est_rows right_key
  in
  let schema = Schema.append left.schema right.schema in
  let node, sorted =
    match method_ with
    | `Hash ->
        ( Exec.Plan.Join
            {
              method_ = Exec.Plan.Hash;
              kind;
              cond = oriented;
              residual = [];
              left = left.node;
              right = right.node;
            },
          left.sorted )
    | `Index ((lc, _, rc) as indexed_cond) ->
        (* The right side is the B-tree probed with each left row's key;
           every other condition and the right-side restrictions apply as
           residuals on the fetched matches. *)
        let residual =
          List.filter_map
            (fun (lc, op, rc) ->
              if (lc, op, rc) = indexed_cond then None
              else Some (Cmp (Col lc, op, Col rc)))
            oriented
          @ filters
        in
        let key = Some (Col lc, true) in
        ( Exec.Plan.Join
            {
              method_ = Exec.Plan.Index_nl;
              kind;
              cond = [];
              residual;
              left = left.node;
              right =
                Exec.Plan.Index_scan
                  {
                    table = right_f.rel;
                    alias;
                    column = rc.column;
                    lo = key;
                    hi = key;
                  };
            },
          left.sorted )
    | `Merge | `Nl ->
    if use_merge then
      let lnode =
        if left_sorted then left.node else Exec.Plan.Sort (left_key, left.node)
      in
      let rnode =
        if right_sorted then right.node
        else Exec.Plan.Sort (right_key, right.node)
      in
      ( Exec.Plan.Join
          {
            method_ = Exec.Plan.Sort_merge;
            kind;
            cond = oriented;
            residual = [];
            left = lnode;
            right = rnode;
          },
        Some left_key )
    else
      (* Hybrid: a restricted stored inner that fits the pool is rescanned
         where it is stored, its restriction tested as a residual on each
         pair, as the index path does; a [Filter] inner would be written
         and re-read instead.  Same rows for an outer join too: a left row
         is padded iff no inner row passes the conditions and the
         restriction.  [nl_cost] prices this form. *)
      let right_node, residual =
        match (mode, right.node) with
        | ( Hybrid,
            Exec.Plan.Filter
              ( fs,
                ((Exec.Plan.Scan _ | Exec.Plan.Rename (_, Exec.Plan.Scan _)) as
                 stored) ) )
          when right.est_pages <= float_of_int (b - 1) ->
            (stored, fs)
        | _ -> (right.node, [])
      in
      ( Exec.Plan.Join
          {
            method_ = Exec.Plan.Nested_loop;
            kind;
            cond = oriented;
            residual;
            left = left.node;
            right = right_node;
          },
        left.sorted )
  in
  {
    node;
    tables = alias :: left.tables;
    schema;
    sorted;
    est_rows;
    est_pages = Estimate.est_pages catalog ~rows:est_rows schema;
  }

(* ------------------------------------------------------------------ *)
(* Whole-query lowering                                                *)
(* ------------------------------------------------------------------ *)

type lowered = { plan : Exec.Plan.node; out_sorted : int list option }

let lower ?(force = Auto) ?(mode = Paper1987) (catalog : Catalog.t) (q : query)
    : lowered =
  if q.from = [] then errf "query with empty FROM";
  if List.exists predicate_has_subquery q.where then
    errf "query still contains nested predicates (transform it first)";
  (* Partition predicates: single-table filters vs join conditions. *)
  let locals = List.map from_alias q.from in
  let pred_tables = pred_tables ~locals in
  let filters_of alias =
    List.filter
      (fun p ->
        match p with
        | Cmp _ ->
            let tabs = List.sort_uniq String.compare (pred_tables p) in
            tabs = [ alias ]
        | _ -> false)
      q.where
  in
  let is_filter p =
    match p with
    | Cmp _ ->
        (match List.sort_uniq String.compare (pred_tables p) with
        | [ _ ] -> true
        | [] -> true (* constant predicate: evaluate on first scan *)
        | _ -> false)
    | _ -> false
  in
  let join_conds = List.filter (fun p -> not (is_filter p)) q.where in
  let first, rest =
    match q.from with f :: rest -> (f, rest) | [] -> assert false
  in
  let constant_preds =
    List.filter
      (fun p -> match p with Cmp _ -> pred_tables p = [] | _ -> false)
      q.where
  in
  let state0 =
    base_state catalog first (filters_of (from_alias first) @ constant_preds)
  in
  let state, leftover =
    List.fold_left
      (fun (st, conds) f ->
        let alias = from_alias f in
        let mine, others =
          connecting_conds ~locals conds ~left_tables:st.tables ~alias
        in
        (join_step catalog ~force ~mode st f mine (filters_of alias), others))
      (state0, join_conds) rest
  in
  (* Conditions never picked up (e.g. referencing one table twice through a
     self-join alias) become residual filters on top. *)
  let state =
    match leftover with
    | [] -> state
    | ps -> { state with node = Exec.Plan.Filter (ps, state.node) }
  in
  (* GROUP BY / aggregates *)
  let aggs, out_cols =
    Exec.Plan.select_aggs ~name:(fun _ a -> item_output_name (Sel_agg a))
      q.select
  in
  let state =
    if aggs <> [] || q.group_by <> [] then begin
      let sorted_ok = q.group_by <> [] && state.sorted = Some q.group_by in
      (* Hybrid mode: when the input has no useful order, hash aggregation
         skips the external sort entirely — taken when the group table fits
         the pool and the blended model agrees (it always does once a sort
         would spill). *)
      let b = Storage.Pager.buffer_pages (Catalog.pager catalog) in
      let est_groups = Float.max 1. (state.est_rows /. 3.) in
      let use_hash =
        mode = Hybrid && q.group_by <> [] && (not sorted_ok)
        && Estimate.est_pages catalog ~rows:est_groups state.schema
           <= float_of_int (b - 1)
        && Cost.hash_agg_blended ~pi:state.est_pages ~ni:state.est_rows
           <= Cost.sort_agg_blended ~rounding:Cost.Ceil ~b ~pi:state.est_pages
                ~ni:state.est_rows ()
      in
      let node =
        if use_hash then
          Exec.Plan.Hash_group_agg
            { group_by = q.group_by; aggs; input = state.node }
        else
          let input =
            if q.group_by = [] || sorted_ok then state.node
            else Exec.Plan.Sort (q.group_by, state.node)
          in
          Exec.Plan.Group_agg { group_by = q.group_by; aggs; input }
      in
      let schema = Exec.Plan.output_schema catalog node in
      {
        state with
        node;
        schema;
        sorted =
          (if q.group_by = [] || use_hash then None else Some q.group_by);
        est_rows = est_groups;
        est_pages = Estimate.est_pages catalog ~rows:state.est_rows schema;
      }
    end
    else state
  in
  (* Final projection, in select order. *)
  let node = Exec.Plan.Project (out_cols, state.node) in
  (* Hybrid mode: hash dedup when the distinct result fits the pool; it
     keeps first-occurrence order instead of producing a sorted result. *)
  let use_hash_distinct =
    q.distinct && mode = Hybrid
    &&
    let b = Storage.Pager.buffer_pages (Catalog.pager catalog) in
    let out_schema = Exec.Plan.output_schema catalog node in
    Estimate.est_pages catalog ~rows:state.est_rows out_schema
    <= float_of_int (b - 1)
  in
  let node =
    if q.distinct then
      if use_hash_distinct then Exec.Plan.Hash_distinct node
      else Exec.Plan.Distinct node
    else node
  in
  (* Output order: after a sort-based DISTINCT the rows are fully sorted by
     all output columns; otherwise (including hash dedup, which preserves
     input order) the pre-projection order survives when its columns are a
     prefix of the projection. *)
  let out_sorted =
    if q.distinct && not use_hash_distinct then
      Some (List.init (List.length out_cols) Fun.id)
    else
      match state.sorted with
      | None -> None
      | Some sort_cols ->
          let rec prefix_positions i = function
            | [] -> Some []
            | c :: rest ->
                if i < List.length out_cols && List.nth out_cols i = c then
                  Option.map (fun tl -> i :: tl) (prefix_positions (i + 1) rest)
                else None
          in
          prefix_positions 0 sort_cols
  in
  { plan = node; out_sorted }

(* ------------------------------------------------------------------ *)
(* Program execution                                                   *)
(* ------------------------------------------------------------------ *)

(* Register an executed temp result under its name with the program's
   column names and order metadata. *)
let register_temp_result catalog name def out_sorted result =
  let names = Program.output_column_names def in
  let cols = Schema.columns (Relation.schema result) in
  if List.length names <> List.length cols then
    errf "temp %s: %d column names for %d columns" name (List.length names)
      (List.length cols);
  let schema =
    Schema.of_columns ~rel:name
      (List.map2 (fun n (c : Schema.column) -> (n, c.ty)) names cols)
  in
  let renamed = Relation.make schema (Relation.rows result) in
  Catalog.register_relation ?sorted_on:out_sorted catalog name renamed

(* Execute a lowered plan, instrumented when a session is supplied. *)
let run_plan ?session catalog plan : Relation.t =
  let observe = Option.map Exec.Explain.observer session in
  Exec.Plan.run ?observe catalog plan

(* Structural verification of a transformed program (NQ900-NQ906): the
   invariants NEST-JA2 guarantees and Kim's NEST-JA violates.  The checker
   itself lives in [Analysis.Rewrite_verifier]; this wrapper only adapts
   [Program.t] to its plain-data interface. *)
let verify_program catalog (p : Program.t) : Analysis.Diagnostics.t list =
  Analysis.Rewrite_verifier.verify
    ~lookup:(Catalog.lookup catalog)
    ~temps:(List.map (fun { Program.name; def } -> (name, def)) p.temps)
    ~main:p.main

let drop_temps catalog (p : Program.t) =
  List.iter (fun { Program.name; _ } -> Catalog.drop catalog name) p.temps

type segments = Plan of Exec.Plan.node | Program of Program.t

(* The one segment loop, for every strategy.  Nested iteration and batched
   bindings are one plan, handed to [main] as ("main", plan).  A program's
   temps are lowered against the catalog as the earlier temps left it and
   handed to [temp] as ("temp NAME", plan); what [temp] returns is
   registered as the temp's result.  Then the main query's plan goes to
   [main], whose answer is the loop's.  Created temps stay registered. *)
let walk ?(force = Auto) ?(mode = Paper1987) catalog segments ~temp ~main =
  match segments with
  | Plan plan -> main "main" plan
  | Program (p : Program.t) ->
      List.iter
        (fun ({ Program.name; def } : Program.temp) ->
          let { plan; out_sorted } = lower ~force ~mode catalog def in
          register_temp_result catalog name def out_sorted
            (temp ("temp " ^ name) plan))
        p.temps;
      main "main" (lower ~force ~mode catalog p.main).plan

let drop_segment_temps catalog = function
  | Plan _ -> ()
  | Program p -> drop_temps catalog p

(* Run every segment: temps in order, then the main plan, whose result is
   returned.  Created temps stay registered (callers can inspect them — the
   paper's tables show TEMP contents — and drop them with [drop_temps]).
   Structural verification is the caller's ([Core] refuses an unverified
   program before it gets here). *)
let run_segments ?force ?mode ?session catalog segments : Relation.t =
  let run _ plan = run_plan ?session catalog plan in
  walk ?force ?mode catalog segments ~temp:run ~main:run

let run_program ?force ?mode ?engine:(_ : Exec.Plan.engine option) ?session
    catalog p =
  run_segments ?force ?mode ?session catalog (Program p)

(* Type-check the plans [run_segments] runs: each segment's plan is
   compiled as the run compiles it and, when it compiles, walked by the
   plan checker; each temp's is run so that the next segment lowers
   against its result.  Stops after the first segment with an Error-severity
   violation.  Returns each checked segment as (label, plan, diagnostics);
   temps are dropped before returning. *)
let check_segments ?force ?mode catalog segments =
  let checked = ref [] in
  let exception Refused in
  let check label plan =
    let diags = Analysis.Plan_check.check_catalog catalog plan in
    checked := (label, plan, diags) :: !checked;
    if Analysis.Diagnostics.has_errors diags then raise Refused
  in
  (try
     Fun.protect ~finally:(fun () -> drop_segment_temps catalog segments)
     @@ fun () ->
     walk ?force ?mode catalog segments
       ~temp:(fun label plan ->
         check label plan;
         run_plan catalog plan)
       ~main:check
   with Refused -> ());
  List.rev !checked

type explained = {
  seg_label : string;
  seg_text : string;
  seg_json : Json.t;
  seg_rows : int option;
}

(* EXPLAIN [ANALYZE]: one annotated segment per pipeline step, its
   estimates from the statistics as they stand before the plan runs, as
   the planner saw them.  Temps run either way — later segments lower
   against their results, as under [run_segments] — but only [analyze]
   instruments them and runs the main plan at all.  Temps are dropped
   before returning. *)
let explain_segments ?force ?mode ?(analyze = false) ?trace catalog
    segments : explained list =
  let explained = ref [] in
  let explain label plan =
    let estimate = Estimate.estimator catalog plan in
    let result, metrics =
      if not analyze then (None, None)
      else begin
        Option.iter
          (fun out ->
            out
              (Json.to_string
                 (Json.Obj
                    [ ("ev", Json.Str "segment"); ("name", Json.Str label) ])))
          trace;
        let session = Exec.Explain.session ?trace (Catalog.pager catalog) in
        let result = run_plan ~session catalog plan in
        (Some result, Some (Exec.Explain.metrics session))
      end
    in
    explained :=
      {
        seg_label = label;
        seg_text = Exec.Explain.render ~estimate ?metrics ~indent:1 plan;
        seg_json = Exec.Explain.render_json ~estimate ?metrics plan;
        seg_rows = Option.map Relation.cardinality result;
      }
      :: !explained;
    result
  in
  Fun.protect
    ~finally:(fun () -> drop_segment_temps catalog segments)
    (fun () ->
      walk ?force ?mode catalog segments
        ~temp:(fun label plan ->
          match explain label plan with
          | Some result -> result
          | None -> run_plan catalog plan)
        ~main:(fun label plan -> ignore (explain label plan)));
  List.rev !explained

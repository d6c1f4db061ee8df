(* The page-I/O cost vocabulary and the estimators built from it.

   The first section holds every catalog-statistics and B-tree formula of
   the model: filter and equi-join selectivity (Selinger defaults,
   per-column distinct counts), page estimates, and the cost of an index
   probe or range scan.  The planner ranks alternatives with them while it
   lowers a query; [analyze] re-derives them bottom-up over a finished
   physical plan for EXPLAIN (so the executor does not depend on the
   optimizer); Auto's pricers and NEST-JA2's keyed-TEMP2 rule below price
   whole strategies with them.

   The formulas are shared; two inputs are not.  For a nested-loop inner
   materialized from a filter (under Paper1987, or a table the pool cannot
   hold), the planner prices each rescan at the base relation's pages,
   while [analyze] prices it at the filter output's pages, which is what
   [Plan.nl_inner] writes and rescans.  (Under Hybrid a restricted table
   that fits the pool is rescanned where it is stored, its restriction a
   join residual; both price that at the table's pages, and [analyze]
   scales the join's rows by the residual's right-side restrictions as the
   filter's selectivity would.)  For a left-outer join, [analyze] floors
   the rows at the outer cardinality and the planner does not.

   Cost is cumulative: the estimated page I/Os to produce the operator's
   full output once, children included (sorts pay materialize + merge
   passes + re-read; a nested-loop join pays the §4 rescan term when the
   inner outgrows the pool; hash operators pay only their inputs, CPU being
   invisible to the paper's metric). *)

module Schema = Relalg.Schema
module Catalog = Storage.Catalog
module Stats = Storage.Stats
module Pager = Storage.Pager
module Btree = Storage.Btree
open Sql.Ast

(* ------------------------------------------------------------------ *)
(* The cost vocabulary                                                 *)
(* ------------------------------------------------------------------ *)

(* A stored relation is named by the FROM item that reads it: a column
   reference qualified by another alias is not one of its columns. *)
let column_stats catalog (f : from_item) (c : col_ref) =
  match c.table with
  | Some t when not (String.equal t (from_alias f)) -> None
  | _ -> Catalog.column_stats catalog f.rel c.column

let est_pages catalog ~rows schema =
  let width = float_of_int (Schema.tuple_width_estimate schema) in
  let page = float_of_int (Pager.page_bytes (Catalog.pager catalog)) in
  Float.max 1. (ceil (rows *. width /. page))

(* Fraction of [f]'s rows with [c op v]; the range default when [c] has no
   statistics. *)
let literal_selectivity catalog f c op v =
  match column_stats catalog f c with
  | Some (_, cs) -> Stats.literal_selectivity cs op v
  | None -> Stats.default_range_selectivity

(* A column of another alias than [f]'s: an enclosing block's column,
   bound when an [Apply] re-opens the plan, so priced as an unknown value
   (1/distinct for equality, the range default for a range). *)
let is_param (f : from_item) (c : col_ref) =
  Option.fold ~none:false ~some:(fun t -> t <> from_alias f) c.table

(* Combined selectivity of pushed-down filters over [f]: comparisons with
   a literal or a parameter use per-column statistics, everything else
   (and every filter over a non-stored input, [None]) the range
   default. *)
let filter_selectivity catalog (f : from_item option) preds =
  List.fold_left
    (fun s p ->
      s
      *.
      match (f, p) with
      | Some f, Cmp (Col c, op, Lit v) -> literal_selectivity catalog f c op v
      | Some f, Cmp (Lit v, op, Col c) ->
          literal_selectivity catalog f c (flip_cmp op) v
      | Some f, Cmp (Col c, op, Col p) when is_param f p && not (is_param f c)
        ->
          literal_selectivity catalog f c op Relalg.Value.Null
      | Some f, Cmp (Col p, op, Col c) when is_param f p && not (is_param f c)
        ->
          literal_selectivity catalog f c (flip_cmp op) Relalg.Value.Null
      | _ -> Stats.default_range_selectivity)
    1. preds

(* Selinger's join cardinality: the cross product scaled by 1/max(distinct)
   per equality on a column of the right side [f] (the equality default
   without statistics); a join with no equality takes the range default. *)
let join_rows catalog (f : from_item option) ~left_rows ~right_rows
    (right_cols : col_ref list) =
  let sel =
    if right_cols = [] then Stats.default_range_selectivity
    else
      List.fold_left
        (fun s rc ->
          s
          *.
          match Option.bind f (fun f -> column_stats catalog f rc) with
          | Some (_, cs) -> Stats.join_selectivity cs cs
          | None -> Stats.default_eq_selectivity)
        1. right_cols
  in
  Float.max 1. (left_rows *. right_rows *. sel)

(* The B-tree on the column [c] names in [f], with that column's
   statistics. *)
let index_on catalog f c =
  Option.bind (column_stats catalog f c) (fun (key_col, cs) ->
      Option.map (fun idx -> (idx, cs)) (Catalog.index_on catalog f.rel ~key_col))

let descent idx = float_of_int (Btree.height idx)

type probe = { probe_cost : float; probe_matches : float }

(* One equality probe through a B-tree and its column's statistics: a
   root-to-leaf descent plus a data-page fetch per match, tuples/distinct
   of them (the probe-side pessimism of §4: matches rarely share
   pages). *)
let probe_through catalog (f : from_item) (idx, (cs : Stats.column_stats)) =
  let matches =
    if cs.distinct > 0 then
      float_of_int (Catalog.tuples catalog f.rel) /. float_of_int cs.distinct
    else 1.
  in
  { probe_cost = descent idx +. matches; probe_matches = matches }

(* [None] without a B-tree on [c]. *)
let index_probe catalog f c =
  Option.map (probe_through catalog f) (index_on catalog f c)

(* A range probe selecting [sel] of [tuples] rows, [matches] of them: one
   descent, the qualifying slice of the leaf level, and a data-page fetch
   per match.  A plan whose B-tree is gone is priced as a tree of height 1
   with 100 keys per leaf. *)
let index_range_cost ~tuples idx ~sel ~matches =
  match idx with
  | Some idx -> Btree.range_cost idx ~sel ~matches
  | None -> 1. +. ceil (sel *. Float.max 1. (tuples /. 100.)) +. matches

(* ------------------------------------------------------------------ *)
(* Plan-tree estimation (EXPLAIN)                                      *)
(* ------------------------------------------------------------------ *)

type t = { rows : float; pages : float; cost : float }

(* The stored relation a node reads directly, as the FROM item that names
   its columns. *)
let rec base_rel = function
  | Exec.Plan.Scan name -> Some (from name)
  | Exec.Plan.Rename (alias, input) ->
      Option.map
        (fun (f : from_item) -> { f with alias = Some alias })
        (base_rel input)
  | _ -> None

(* The stored relation a join's right side reads, an index scan's
   included. *)
let stored_rel = function
  | Exec.Plan.Index_scan { table; alias; _ } -> Some (from ~alias table)
  | node -> base_rel node

(* A join's residual predicates that read no column of its left side:
   right-side restrictions (against literals or parameters). *)
let restrictions catalog left residual =
  let lschema = Exec.Plan.output_schema catalog left in
  let on_left = function
    | Col (c : col_ref) -> (
        match Schema.find_opt lschema ?rel:c.table c.column with
        | Some _ | (exception Schema.Ambiguous _) -> true
        | None -> false)
    | Lit _ -> false
  in
  List.filter
    (function
      | Cmp (a, _, b) -> not (on_left a || on_left b) | _ -> false)
    residual

(* FROM items in scope, innermost first, by alias. *)
type scope = (string * from_item) list

(* Distinct values [c] takes, a NULL counting as one more [~with_null];
   [None] for a column no FROM item in [scope] names. *)
let binding_count ~with_null catalog (scope : scope) (c : col_ref) =
  Option.bind
    (Option.bind c.table (fun t -> List.assoc_opt t scope))
    (fun f ->
      Option.map
        (fun (_, (cs : Stats.column_stats)) ->
          float_of_int
            (max 1 cs.distinct + if with_null && cs.nulls > 0 then 1 else 0))
        (column_stats catalog f c))

(* The stored relations a plan scans, by alias. *)
let rec plan_scope node : scope =
  match base_rel node with
  | Some f -> [ (from_alias f, f) ]
  | None -> List.concat_map plan_scope (Exec.Plan.children node)

let analyze catalog (root : Exec.Plan.node) : (Exec.Plan.node * t) list =
  let acc = ref [] in
  let b = Pager.buffer_pages (Catalog.pager catalog) in
  let sort_cost p = Cost.sort_cost ~rounding:Cost.Ceil ~b p in
  let derived_pages node rows =
    est_pages catalog ~rows (Exec.Plan.output_schema catalog node)
  in
  let rec go node =
    let result =
      match node with
      | Exec.Plan.Scan name ->
          let pages = float_of_int (Catalog.pages catalog name) in
          {
            rows = float_of_int (Catalog.tuples catalog name);
            pages;
            cost = pages;
          }
      | Exec.Plan.Index_scan { table; column; lo; hi; _ } ->
          let tuples = float_of_int (Catalog.tuples catalog table) in
          let f = from table and c = { table = None; column } in
          let bound_sel op = function
            | None -> 1.
            | Some (Lit v, _) -> literal_selectivity catalog f c op v
            | Some (Col _, _) ->
                literal_selectivity catalog f c op Relalg.Value.Null
          in
          let sel =
            match (lo, hi) with
            | Some (v, true), Some (v', true) when v = v' -> bound_sel Eq lo
            | lo, hi ->
                Float.max Stats.default_eq_selectivity
                  (bound_sel Ge lo +. bound_sel Le hi -. 1.)
          in
          let rows = Float.max 1. (tuples *. sel) in
          {
            rows;
            pages = derived_pages node rows;
            cost =
              index_range_cost ~tuples
                (Option.map fst (index_on catalog f c))
                ~sel ~matches:rows;
          }
      | Exec.Plan.Rename (_, input) -> go input
      | Exec.Plan.Filter (preds, input) ->
          let i = go input in
          let sel = filter_selectivity catalog (base_rel input) preds in
          let rows = Float.max 1. (i.rows *. sel) in
          { rows; pages = derived_pages node rows; cost = i.cost }
      | Exec.Plan.Project (_, input) ->
          let i = go input in
          { rows = i.rows; pages = derived_pages node i.rows; cost = i.cost }
      | Exec.Plan.Distinct input | Exec.Plan.Sort (_, input) ->
          (* materialize (write), (B-1)-way merge sort, re-read the run *)
          let i = go input in
          {
            rows = i.rows;
            pages = i.pages;
            cost = i.cost +. i.pages +. sort_cost i.pages +. i.pages;
          }
      | Exec.Plan.Hash_distinct input ->
          (* one streamed pass; no page I/O for the table *)
          let i = go input in
          { rows = i.rows; pages = i.pages; cost = i.cost }
      | Exec.Plan.Join { method_; kind; cond; residual; left; right } ->
          let l = go left in
          let r = go right in
          let eq =
            List.filter (fun (_, op, _) -> op = Eq || op = Eq_null) cond
          in
          let rrel = base_rel right in
          (* The residual's right-side restrictions cut the right side as
             the [Filter] they stand for would have. *)
          let right_rows =
            match restrictions catalog left residual with
            | [] -> r.rows
            | fs ->
                Float.max 1.
                  (r.rows *. filter_selectivity catalog (stored_rel right) fs)
          in
          let rows =
            join_rows catalog rrel ~left_rows:l.rows ~right_rows
              (List.map (fun (_, _, rc) -> rc) eq)
          in
          let rows =
            match kind with
            | _ when cond = [] -> l.rows *. right_rows (* a cross product *)
            | Exec.Plan.Left_outer -> Float.max rows l.rows
            | Exec.Plan.Inner -> rows
          in
          let cost =
            match method_ with
            | Exec.Plan.Sort_merge | Exec.Plan.Hash -> l.cost +. r.cost
            | Exec.Plan.Nested_loop ->
                (* §4: the stored inner is re-read per outer row unless it
                   fits the pool. *)
                l.cost
                +.
                if r.pages <= float_of_int (b - 1) then r.cost
                else l.rows *. r.pages
            | Exec.Plan.Index_nl ->
                (* the right side is an index scan re-probed per row *)
                l.cost +. (l.rows *. r.cost)
          in
          { rows; pages = derived_pages node rows; cost }
      | Exec.Plan.Group_agg { group_by; input; _ }
      | Exec.Plan.Hash_group_agg { group_by; input; _ } ->
          let i = go input in
          let rows =
            if group_by = [] then 1. else Float.max 1. (i.rows /. 3.)
          in
          { rows; pages = derived_pages node rows; cost = i.cost }
      | Exec.Plan.Apply { mode; preds; outer } ->
          (* Each inner plan is estimated for one binding.  Per row, a
             correlated subquery re-runs per outer row and an uncorrelated
             value list is built once, then re-read per row; per key, each
             correlated subquery runs once per distinct key tuple. *)
          let o = go outer in
          let inner_cost (p, (sp : Exec.Plan.subplan)) =
            let i = go sp.inner in
            match (mode, sp.keys, p) with
            | Exec.Plan.Per_row, [], (Exists _ | Not_exists _) ->
                o.rows *. i.cost
            | Exec.Plan.Per_row, [], _ ->
                i.cost +. (o.rows *. i.pages)
            | Exec.Plan.Per_row, _, _ -> o.rows *. i.cost
            | Exec.Plan.Per_key, keys, _ ->
                let batch c =
                  Option.value ~default:o.rows
                    (binding_count ~with_null:true catalog (plan_scope outer) c)
                in
                let batches =
                  List.fold_left (fun n c -> n *. batch c) 1. keys
                in
                Float.min o.rows batches *. i.cost
          in
          let cost =
            List.fold_left
              (fun acc (p, sp) ->
                Option.fold sp ~none:acc ~some:(fun s ->
                    acc +. inner_cost (p, s)))
              o.cost preds
          in
          let rows =
            Float.max 1.
              (o.rows *. filter_selectivity catalog None (List.map fst preds))
          in
          { rows; pages = derived_pages node rows; cost }
    in
    acc := (node, result) :: !acc;
    result
  in
  ignore (go root);
  !acc

let root catalog plan =
  match analyze catalog plan with
  | (_, t) :: _ -> t (* the root is recorded last, hence first *)
  | [] -> assert false

let estimator catalog plan =
  let entries = analyze catalog plan in
  fun node ->
    List.find_map
      (fun (n, t) ->
        if n == node then
          Some { Exec.Explain.est_rows = t.rows; est_cost = t.cost }
        else None)
      entries

(* ------------------------------------------------------------------ *)
(* Auto's pricers: nested iteration and batched bindings               *)
(* ------------------------------------------------------------------ *)

(* Both strategies enumerate the outer block's frames and re-evaluate each
   correlated WHERE subquery; they differ in how often.  Nested iteration
   ([Sysr_iteration]) re-runs a subquery per outer assignment, but a frame
   it probes through a B-tree is paid once per distinct binding when one
   probe's pages fit the pool: a repeat re-reads the pages the identical
   probe just left resident.  Batching ([Batched_nest]) evaluates each
   subquery once per distinct correlation-key tuple.  Both counts are
   products of per-column distinct counts, capped by the enumerations; a
   NULL key is one more batch, but never a probe (a B-tree stores no NULL
   keys, so a NULL bound is answered without I/O). *)

(* The frames of [q]'s enumeration, run [evals] times: their page I/O (a
   full rescan per enumeration unless probed), the assignments they
   produce, whether any frame probes, and the scope the subqueries see. *)
let frames catalog ~(scope : scope) ~evals (q : query) =
  let pool = float_of_int (Pager.buffer_pages (Catalog.pager catalog)) in
  let probes =
    Exec.Sysr_iteration.probes catalog ~outer_aliases:(List.map fst scope) q
  in
  List.fold_left
    (fun (cost, rows_so_far, probed, scope) (f : from_item) ->
      let alias = from_alias f in
      let enumerations = evals *. rows_so_far in
      let probe =
        Option.bind
          (List.find_opt (fun (a, _, _) -> String.equal a alias) probes)
          (fun (_, column, rhs) ->
            Option.map
              (fun p -> (p, rhs))
              (index_probe catalog f { table = None; column }))
      in
      let scope' = (alias, f) :: scope in
      match probe with
      | Some (p, rhs) ->
          let bindings =
            match rhs with
            | Lit _ -> Some 1.
            | Col c -> binding_count ~with_null:false catalog scope c
          in
          let paid =
            match bindings with
            | Some d when p.probe_cost <= pool -> Float.min enumerations d
            | _ -> enumerations
          in
          ( cost +. (paid *. p.probe_cost),
            rows_so_far *. Float.max 1. p.probe_matches,
            true,
            scope' )
      | None ->
          let tuples = float_of_int (max 1 (Catalog.tuples catalog f.rel)) in
          let pages = float_of_int (max 1 (Catalog.pages catalog f.rel)) in
          ( cost +. (enumerations *. pages),
            rows_so_far *. tuples,
            probed,
            scope' ))
    (0., 1., false, scope) q.from

(* Nested iteration's page I/O for [q] run [evals] times, and whether any
   frame probes: each correlated subquery re-runs per innermost
   assignment; an uncorrelated one runs once, then each assignment
   re-reads its materialized value list (approximated at one page). *)
let rec nested catalog ~scope ~evals (q : query) : float * bool =
  let cost, fanout, probed, scope = frames catalog ~scope ~evals q in
  List.fold_left
    (fun (c, p) sub ->
      let sc, sp = subquery catalog ~scope ~evals:(evals *. fanout) sub in
      (c +. sc, p || sp))
    (cost, probed) (subqueries q)

and subquery catalog ~scope ~evals sub =
  if is_correlated sub then nested catalog ~scope ~evals sub
  else
    let sc, sp = nested catalog ~scope:[] ~evals:1. sub in
    (sc +. evals, sp)

let indexed_nested_cost catalog (q : query) : float option =
  if subqueries q = [] then None
  else
    match nested catalog ~scope:[] ~evals:1. q with
    | c, true -> Some c
    | _, false -> None

(* Each correlated WHERE subquery batching can evaluate, with its batch
   count; an uncorrelated one runs once either way, an unbatchable one
   makes batching refuse at run time.  [outer_rows] bounds the batches. *)
let batched_subqueries catalog (q : query) ~outer_rows =
  let scope = List.map (fun (f : from_item) -> (from_alias f, f)) q.from in
  List.filter_map
    (fun sub ->
      match correlation_keys sub with
      | Ok (_ :: _ as keys) ->
          let batches =
            List.fold_left
              (fun acc c ->
                (* e.g. a correlation on a mid-level alias *)
                acc
                *. Option.value ~default:outer_rows
                     (binding_count ~with_null:true catalog scope c))
              1. keys
          in
          Some (sub, Float.min outer_rows batches)
      | Ok [] | Error _ -> None)
    (subqueries q)

let outer_rows catalog (q : query) =
  List.fold_left
    (fun acc (f : from_item) ->
      acc *. float_of_int (max 1 (Catalog.tuples catalog f.rel)))
    1. q.from

(* Batched execution's page I/O: the outer block's frames, then one
   evaluation per batch of each batchable subquery; every other subquery
   costs what it costs nested iteration. *)
let batched_cost catalog (q : query) : float option =
  let outer_rows = outer_rows catalog q in
  match batched_subqueries catalog q ~outer_rows with
  | [] -> None
  | batched ->
      let cost, fanout, _, scope = frames catalog ~scope:[] ~evals:1. q in
      Some
        (List.fold_left
           (fun acc sub ->
             acc
             +.
             match List.assq_opt sub batched with
             | Some batches ->
                 batches *. fst (nested catalog ~scope ~evals:1. sub)
             | None -> fst (subquery catalog ~scope ~evals:fanout sub))
           cost (subqueries q))

(* Batch when batching is priced strictly below nested iteration (ties go
   to nested iteration, the reference behaviour).  Without a probe both
   pay the same per evaluation, so this compares evaluation counts. *)
let prefer_batched catalog q =
  match batched_cost catalog q with
  | None -> false
  | Some batched -> batched < fst (nested catalog ~scope:[] ~evals:1. q)

(* ------------------------------------------------------------------ *)
(* NEST-JA2's keyed TEMP2                                              *)
(* ------------------------------------------------------------------ *)

type keyed_temp2 = {
  kt_keys : float;
  kt_height : int;
  kt_pages : float;
  kt_probe : float;
}

(* The paper's TEMP2 reads the whole inner relation; the keyed TEMP2 pays
   at least one root-to-leaf descent per TEMP1 key (matches cost data-page
   fetches on top).  So keys × height is a lower bound on probing, and
   when it is not below the inner relation's page count the keyed form
   cannot win: a bound used to rule the keyed form out, not to prove it
   cheaper.  The key count is the product of the non-NULL distinct counts
   of TEMP1's columns, capped by the outer cardinality: NULL keys never
   probe, and TEMP1's DISTINCT (plus the outer restrictions) can only
   shrink it. *)
let keyed_temp2 catalog (kp : Program.key_probe) : keyed_temp2 option =
  let inner = from kp.inner_rel in
  match index_on catalog inner { table = None; column = kp.inner_col } with
  | Some ((idx, _) as index) when Catalog.mem catalog kp.outer_rel ->
      let outer_rows = float_of_int (Catalog.tuples catalog kp.outer_rel) in
      let distinct c =
        match Catalog.column_stats catalog kp.outer_rel c with
        | Some (_, cs) -> float_of_int cs.Stats.distinct
        | None -> outer_rows
      in
      let keys =
        Float.min outer_rows
          (List.fold_left (fun acc c -> acc *. distinct c) 1. kp.outer_cols)
      in
      let height = Btree.height idx in
      let pages = float_of_int (Catalog.pages catalog kp.inner_rel) in
      if keys *. float_of_int height < pages then
        Some
          {
            kt_keys = keys;
            kt_height = height;
            kt_pages = pages;
            kt_probe = (probe_through catalog inner index).probe_cost;
          }
      else None
  | _ -> None

let describe_keyed_temp2 k =
  Printf.sprintf "%.0f keys × height %d = %.0f < %.0f pages" k.kt_keys
    k.kt_height
    (k.kt_keys *. float_of_int k.kt_height)
    k.kt_pages

(* ------------------------------------------------------------------ *)
(* The transformed program's side of the §7 crossover                 *)
(* ------------------------------------------------------------------ *)

let rec referenced_rels (q : query) : string list =
  List.map (fun (f : from_item) -> f.rel) q.from
  @ List.concat_map referenced_rels (subqueries q)

(* A lower bound on the page I/O of [program], the transformation of [q]:
   the paper's temps read every base relation [q] references in full at
   least once — except the inner relation of a keyed TEMP2, which its keys
   probe instead (the program's [probes]), each probe paying what one
   nested-iteration probe pays — and each of the program's temps writes at
   least one page.  So a keyed TEMP2 costs at least the probes nested
   iteration makes, plus its temps.  NEST-N-J's index nested-loop joins and
   index scans can read less than a full relation; they are not bounded by
   it.  Unknown relations contribute nothing. *)
let transformed_bound catalog (q : query) (program : Program.t) =
  let keyed rel =
    List.filter_map
      (fun (kp : Program.key_probe) ->
        if String.equal kp.inner_rel rel then keyed_temp2 catalog kp else None)
      program.probes
  in
  List.fold_left
    (fun acc rel ->
      acc
      +.
      match keyed rel with
      | [] -> (
          match Catalog.pages catalog rel with
          | p -> float_of_int p
          | exception Catalog.Unknown_table _ -> 0.)
      | probed ->
          List.fold_left (fun acc k -> acc +. (k.kt_keys *. k.kt_probe)) 0. probed)
    (float_of_int (List.length program.temps))
    (List.sort_uniq String.compare (referenced_rels q))

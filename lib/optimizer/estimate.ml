(* The page-I/O cost vocabulary and the estimators built from it.

   The first section holds every catalog-statistics and B-tree formula of
   the model: filter and equi-join selectivity (Selinger defaults,
   per-column distinct counts), page estimates, and the cost of an index
   probe or range scan.  The planner ranks alternatives with them while it
   lowers a query; [analyze] re-derives them bottom-up over a finished
   physical plan for EXPLAIN (so the executor does not depend on the
   optimizer); Auto's pricers and NEST-JA2's keyed-TEMP2 rule below price
   whole strategies with them.

   The formulas are shared; two inputs are not.  For a filtered
   nested-loop inner, the planner prices each rescan at the base
   relation's pages, while [analyze] prices it at the filter output's
   pages, which is what [Plan.nested_loop_join] materializes and rescans.
   For a left-outer join, [analyze] floors the rows at the outer
   cardinality and the planner does not.

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

(* Combined selectivity of pushed-down filters over [f]: literal
   comparisons use per-column statistics, everything else (and every
   filter over a non-stored input, [None]) the range default. *)
let filter_selectivity catalog (f : from_item option) preds =
  List.fold_left
    (fun s p ->
      s
      *.
      match (f, p) with
      | Some f, Cmp (Col c, op, Lit v) -> literal_selectivity catalog f c op v
      | Some f, Cmp (Lit v, op, Col c) ->
          literal_selectivity catalog f c (flip_cmp op) v
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

(* One equality probe of the B-tree on [c]: a root-to-leaf descent plus a
   data-page fetch per match, tuples/distinct of them (the probe-side
   pessimism of §4: matches rarely share pages).  [None] without a
   B-tree. *)
let index_probe catalog f c =
  Option.map
    (fun (idx, (cs : Stats.column_stats)) ->
      let matches =
        if cs.distinct > 0 then
          float_of_int (Catalog.tuples catalog f.rel)
          /. float_of_int cs.distinct
        else 1.
      in
      { probe_cost = descent idx +. matches; probe_matches = matches })
    (index_on catalog f c)

(* A range probe selecting [sel] of [tuples] rows, [matches] of them: one
   descent, the qualifying slice of the leaf level, and a data-page fetch
   per match.  A plan whose B-tree is gone is priced as a tree of height 1
   with 100 keys per leaf. *)
let index_range_cost ~tuples idx ~sel ~matches =
  let descent, leaves =
    match idx with
    | Some idx -> (descent idx, float_of_int (Btree.leaf_page_count idx))
    | None -> (1., Float.max 1. (tuples /. 100.))
  in
  descent +. ceil (sel *. leaves) +. matches

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
            | Some (v, _) -> literal_selectivity catalog f c op v
          in
          let sel =
            match (lo, hi) with
            | Some (v, true), Some (v', true)
              when Relalg.Value.compare v v' = 0 ->
                bound_sel Eq lo
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
      | Exec.Plan.Join { method_; kind; cond; left; right; _ } ->
          let l = go left in
          let r = go right in
          let eq =
            List.filter (fun (_, op, _) -> op = Eq || op = Eq_null) cond
          in
          let rrel = base_rel right in
          let rows =
            join_rows catalog rrel ~left_rows:l.rows ~right_rows:r.rows
              (List.map (fun (_, _, rc) -> rc) eq)
          in
          let rows =
            match kind with
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
                let probe_cost =
                  match (rrel, eq) with
                  | Some f, (_, _, rc) :: _ -> (
                      match index_probe catalog f rc with
                      | Some p -> p.probe_cost
                      | None -> 1.)
                  | _ -> 1.
                in
                l.cost +. (l.rows *. probe_cost)
          in
          { rows; pages = derived_pages node rows; cost }
      | Exec.Plan.Group_agg { group_by; input; _ }
      | Exec.Plan.Hash_group_agg { group_by; input; _ } ->
          let i = go input in
          let rows =
            if group_by = [] then 1. else Float.max 1. (i.rows /. 3.)
          in
          { rows; pages = derived_pages node rows; cost = i.cost }
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
(* Batched-bindings fallback costing                                   *)
(* ------------------------------------------------------------------ *)

(* When the transformation refuses, [Core]'s Auto strategy chooses between
   plain nested iteration and batched execution ([Batched_nest]).  Both
   re-evaluate each correlated WHERE subquery; nested iteration does it
   once per outer tuple, batching once per *distinct* correlation-key
   tuple — so the decision reduces to comparing the outer cardinality with
   the key domain, both available from catalog statistics (per-column
   distinct counts, a NULL adding one batch of its own). *)

type fallback = {
  fb_outer_rows : float;  (* outer FROM cardinality (cross-product bound) *)
  fb_nested_evals : float;  (* inner evaluations nested iteration pays *)
  fb_batched_evals : float;  (* inner evaluations batching pays *)
}

let batched_fallback catalog (q : Sql.Ast.query) : fallback option =
  let alias_rel =
    List.map (fun (f : from_item) -> (from_alias f, f.rel)) q.from
  in
  let outer_rows =
    List.fold_left
      (fun acc (f : from_item) ->
        acc *. float_of_int (max 1 (Catalog.tuples catalog f.rel)))
      1. q.from
  in
  let distinct_of (c : col_ref) =
    match
      Option.bind
        (Option.bind c.table (fun t -> List.assoc_opt t alias_rel))
        (fun rel -> Catalog.column_stats catalog rel c.column)
    with
    | Some (_, cs) ->
        float_of_int
          (max 1 cs.Stats.distinct + if cs.Stats.nulls > 0 then 1 else 0)
    | None -> outer_rows (* e.g. a correlation on a mid-level alias *)
  in
  (* an uncorrelated subquery runs once either way; an unbatchable one
     would make batching refuse *)
  let correlated_keys =
    List.filter_map
      (fun sub ->
        match correlation_keys sub with
        | Ok (_ :: _ as keys) -> Some keys
        | Ok [] | Error _ -> None)
      (subqueries q)
  in
  match correlated_keys with
  | [] -> None
  | keys_per_pred ->
      let batched =
        List.fold_left
          (fun acc keys ->
            acc
            +. Float.min outer_rows
                 (List.fold_left (fun p c -> p *. distinct_of c) 1. keys))
          0. keys_per_pred
      in
      Some
        {
          fb_outer_rows = outer_rows;
          fb_nested_evals =
            outer_rows *. float_of_int (List.length keys_per_pred);
          fb_batched_evals = batched;
        }

(* The Auto decision: batch when deduplication is estimated to save inner
   evaluations (ties go to nested iteration, the reference behaviour). *)
let prefer_batched catalog q =
  match batched_fallback catalog q with
  | None -> false
  | Some fb -> fb.fb_batched_evals < fb.fb_nested_evals

(* ------------------------------------------------------------------ *)
(* Indexed nested iteration vs transformation (the §7 crossover)       *)
(* ------------------------------------------------------------------ *)

let rec referenced_rels (q : query) : string list =
  List.map (fun (f : from_item) -> f.rel) q.from
  @ List.concat_map referenced_rels (subqueries q)

(* The summed page counts of every referenced base relation: a lower bound
   on the I/O of a transformed program that scans each relation in full at
   least once, as the paper's NEST-JA2/NEST-G temps do.  It is *not* a
   bound on every transformed program: a keyed NEST-JA2 TEMP2
   ([keyed_temp2]) and NEST-N-J's index nested-loop joins probe a B-tree
   instead of scanning, and can read less.  So picking indexed nested
   iteration when it undercuts this floor is safe only against the
   scanning programs; soundness against the probing ones, and of the
   opposite pick, is still open (ROADMAP, Auto soundness). *)
let transformed_floor catalog (q : query) : float =
  List.fold_left
    (fun acc rel ->
      acc
      +.
      match Catalog.pages catalog rel with
      | p -> float_of_int p
      | exception Catalog.Unknown_table _ -> 0.)
    0.
    (List.sort_uniq String.compare (referenced_rels q))

(* Estimated page I/O of evaluating [q] by nested iteration with the
   current index inventory ([Sysr_iteration]'s probes): each frame costs a
   full rescan per enumeration unless probed ([index_probe]), each
   correlated subquery re-runs per innermost assignment, each uncorrelated
   one runs once and is probed from its materialized list.  [None] when no
   probe applies anywhere or [q] has no subquery — then the comparison
   with transformation is not this module's call. *)
let indexed_nested_cost catalog (q : query) : float option =
  let rec cost ~outer_aliases ~evals (q : query) : float * bool =
    let probes = Exec.Sysr_iteration.probes catalog ~outer_aliases q in
    let frame_cost, fanout, any_probe =
      List.fold_left
        (fun (cost_acc, rows_so_far, any) (f : from_item) ->
          let alias = from_alias f in
          let probe =
            Option.bind
              (List.find_opt (fun (a, _, _) -> String.equal a alias) probes)
              (fun (_, column, _) ->
                index_probe catalog f { table = None; column })
          in
          match probe with
          | Some p ->
              ( cost_acc +. (evals *. rows_so_far *. p.probe_cost),
                rows_so_far *. Float.max 1. p.probe_matches,
                true )
          | None ->
              let tuples = float_of_int (max 1 (Catalog.tuples catalog f.rel)) in
              let pages = float_of_int (max 1 (Catalog.pages catalog f.rel)) in
              ( cost_acc +. (evals *. rows_so_far *. pages),
                rows_so_far *. tuples,
                any ))
        (0., 1., false) q.from
    in
    let aliases = outer_aliases @ List.map from_alias q.from in
    List.fold_left
      (fun (c, anyp) sub ->
        if is_correlated sub then
          let sc, sp =
            cost ~outer_aliases:aliases ~evals:(evals *. fanout) sub
          in
          (c +. sc, anyp || sp)
        else
          (* one evaluation, then each innermost assignment re-reads the
             materialized value list (approximated at one page) *)
          let sc, sp = cost ~outer_aliases:[] ~evals:1. sub in
          (c +. sc +. (evals *. fanout), anyp || sp))
      (frame_cost, any_probe) (subqueries q)
  in
  if subqueries q = [] then None
  else
    let c, any_probe = cost ~outer_aliases:[] ~evals:1. q in
    if any_probe then Some c else None

(* ------------------------------------------------------------------ *)
(* NEST-JA2's keyed TEMP2                                              *)
(* ------------------------------------------------------------------ *)

type keyed_temp2 = { kt_keys : float; kt_height : int; kt_pages : float }

(* The paper's TEMP2 reads the whole inner relation; the keyed TEMP2 pays
   at least one root-to-leaf descent per TEMP1 key (matches cost data-page
   fetches on top).  So keys × height is a lower bound on probing, and
   when it is not below the inner relation's page count the keyed form
   cannot win — the same kind of bound as [transformed_floor], here used
   to rule the keyed form out rather than to prove it cheaper.  The key
   count is the product of the non-NULL distinct counts of TEMP1's
   columns, capped by the outer cardinality: NULL keys never probe, and
   TEMP1's DISTINCT (plus the outer restrictions) can only shrink it. *)
let keyed_temp2 catalog (kp : Nest_ja2.key_probe) : keyed_temp2 option =
  match
    index_on catalog (from kp.inner_rel) { table = None; column = kp.inner_col }
  with
  | Some (idx, _) when Catalog.mem catalog kp.outer_rel ->
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
        Some { kt_keys = keys; kt_height = height; kt_pages = pages }
      else None
  | _ -> None

let describe_keyed_temp2 k =
  Printf.sprintf "%.0f keys × height %d = %.0f < %.0f pages" k.kt_keys
    k.kt_height
    (k.kt_keys *. float_of_int k.kt_height)
    k.kt_pages

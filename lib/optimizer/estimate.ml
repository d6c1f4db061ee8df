(* Plan-tree cost/cardinality estimation for EXPLAIN annotation.

   The planner costs alternatives *while lowering* a query and throws the
   numbers away; EXPLAIN wants them attached to the finished plan.  This
   module re-derives them bottom-up over a physical plan with the same
   ingredients — catalog statistics (Selinger defaults, per-column distinct
   counts) and the paper's page-I/O arithmetic with Kim's ceilinged logs —
   so the annotations agree with the planner's ranking without the executor
   depending on the optimizer.

   Cost is cumulative: the estimated page I/Os to produce the operator's
   full output once, children included (sorts pay materialize + merge
   passes + re-read; a nested-loop join pays the §4 rescan term when the
   inner outgrows the pool; hash operators pay only their inputs, CPU being
   invisible to the paper's metric). *)

module Schema = Relalg.Schema
module Catalog = Storage.Catalog
module Stats = Storage.Stats
module Pager = Storage.Pager
open Sql.Ast

type t = { rows : float; pages : float; cost : float }

let est_pages catalog ~rows schema =
  let width = float_of_int (Schema.tuple_width_estimate schema) in
  let page = float_of_int (Pager.page_bytes (Catalog.pager catalog)) in
  Float.max 1. (ceil (rows *. width /. page))

(* The stored relation a node reads directly, for statistics lookup. *)
let rec base_rel = function
  | Exec.Plan.Scan name -> Some name
  | Exec.Plan.Rename (_, input) -> base_rel input
  | _ -> None

(* Selectivity of one pushed-down predicate against base-table statistics
   (the planner's arithmetic: literal comparisons use per-column stats,
   everything else the classic defaults). *)
let filter_selectivity catalog ~rel schema (p : predicate) =
  let default = Stats.default_range_selectivity in
  match (p, rel) with
  | (Cmp (Col c, op, Lit v) | Cmp (Lit v, op, Col c)), Some rel -> (
      match Schema.find_opt schema ?rel:c.table c.column with
      | Some i ->
          let cs = Stats.column (Catalog.stats catalog rel) i in
          Stats.literal_selectivity cs
            (match p with Cmp (Lit _, _, Col _) -> flip_cmp op | _ -> op)
            v
      | None -> default
      | exception Schema.Ambiguous _ -> default)
  | _ -> default

let join_eq_selectivity catalog ~rel rschema (rc : col_ref) =
  match rel with
  | None -> Stats.default_eq_selectivity
  | Some rel -> (
      match Schema.find_opt rschema ?rel:rc.table rc.column with
      | Some i ->
          let cs = Stats.column (Catalog.stats catalog rel) i in
          Stats.join_selectivity cs cs
      | None -> Stats.default_eq_selectivity
      | exception Schema.Ambiguous _ -> Stats.default_eq_selectivity)

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
          let key_col =
            Schema.find_opt (Catalog.schema catalog table) column
          in
          let col_stats =
            Option.map (fun i -> Stats.column (Catalog.stats catalog table) i)
              key_col
          in
          let bound_sel op = function
            | None -> 1.
            | Some (v, _) -> (
                match col_stats with
                | Some cs -> Stats.literal_selectivity cs op v
                | None -> Stats.default_range_selectivity)
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
          let descent, leaf_pages =
            match
              Option.bind key_col (fun key_col ->
                  Catalog.index_on catalog table ~key_col)
            with
            | Some idx ->
                ( float_of_int (Storage.Btree.height idx),
                  float_of_int (Storage.Btree.leaf_page_count idx) )
            | None -> (1., Float.max 1. (tuples /. 100.))
          in
          (* one descent, the qualifying slice of the leaf level, and a
             data-page fetch per match (the probe-side pessimism of §4:
             matches rarely share pages) *)
          {
            rows;
            pages = derived_pages node rows;
            cost = descent +. ceil (sel *. leaf_pages) +. rows;
          }
      | Exec.Plan.Rename (_, input) -> go input
      | Exec.Plan.Filter (preds, input) ->
          let i = go input in
          let rel = base_rel input in
          let schema = Exec.Plan.output_schema catalog input in
          let sel =
            List.fold_left
              (fun s p -> s *. filter_selectivity catalog ~rel schema p)
              1. preds
          in
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
          let rschema = Exec.Plan.output_schema catalog right in
          let sel =
            if eq = [] then Stats.default_range_selectivity
            else
              List.fold_left
                (fun s (_, _, rc) ->
                  s *. join_eq_selectivity catalog ~rel:rrel rschema rc)
                1. eq
          in
          let rows = Float.max 1. (l.rows *. r.rows *. sel) in
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
                  | Some rel, (_, _, rc) :: _ -> (
                      match Schema.find_opt rschema ?rel:rc.table rc.column with
                      | Some key_col -> (
                          match Catalog.index_on catalog rel ~key_col with
                          | Some idx ->
                              let cs =
                                Stats.column (Catalog.stats catalog rel) key_col
                              in
                              let matches =
                                if cs.Stats.distinct > 0 then
                                  float_of_int (Catalog.tuples catalog rel)
                                  /. float_of_int cs.Stats.distinct
                                else 1.
                              in
                              (* root-to-leaf descent plus a data-page
                                 fetch per match *)
                              float_of_int (Storage.Btree.height idx)
                              +. matches
                          | None -> 1.)
                      | None | (exception Schema.Ambiguous _) -> 1.)
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
    match Option.bind c.table (fun t -> List.assoc_opt t alias_rel) with
    | None -> outer_rows (* correlation on a mid-level alias: no estimate *)
    | Some rel -> (
        match Catalog.lookup catalog rel with
        | None -> outer_rows
        | Some schema -> (
            match Schema.find_opt schema c.column with
            | None | (exception Schema.Ambiguous _) -> outer_rows
            | Some i ->
                let cs = Stats.column (Catalog.stats catalog rel) i in
                float_of_int
                  (max 1 cs.Stats.distinct
                  + if cs.Stats.nulls > 0 then 1 else 0)))
  in
  let correlated_keys =
    List.filter_map
      (fun p ->
        match p with
        | Cmp_subq (_, _, sub)
        | In_subq (_, sub)
        | Not_in_subq (_, sub)
        | Exists sub
        | Not_exists sub
        | Quant (_, _, _, sub) -> (
            match
              List.filter_map
                (fun (c, pos) ->
                  match pos with `Predicate -> Some c | `Other -> None)
                (free_col_refs sub)
            with
            | [] -> None (* uncorrelated: one evaluation either way *)
            | keys
              when List.exists
                     (fun (_, pos) -> pos = `Other)
                     (free_col_refs sub) ->
                ignore keys;
                None (* unbatchable shape: batching would refuse *)
            | keys -> Some keys)
        | Cmp _ | Cmp_outer _ -> None)
      q.where
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

let subquery_of = function
  | Cmp_subq (_, _, sub)
  | In_subq (_, sub)
  | Not_in_subq (_, sub)
  | Exists sub
  | Not_exists sub
  | Quant (_, _, _, sub) ->
      Some sub
  | Cmp _ | Cmp_outer _ -> None

let rec referenced_rels (q : query) : string list =
  List.map (fun (f : from_item) -> f.rel) q.from
  @ List.concat_map
      (fun p ->
        match subquery_of p with Some sub -> referenced_rels sub | None -> [])
      q.where

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

let has_subquery (q : query) =
  List.exists (fun p -> Option.is_some (subquery_of p)) q.where

(* Estimated page I/O of evaluating [q] by nested iteration with the
   current index inventory ([Sysr_iteration]'s probes): each frame costs a
   full rescan per enumeration unless probed (descent + a data-page fetch
   per match), each correlated subquery re-runs per innermost assignment,
   each uncorrelated one runs once and is probed from its materialized
   list.  [None] when no probe applies anywhere or [q] has no subquery —
   then the comparison with transformation is not this module's call. *)
let indexed_nested_cost catalog (q : query) : float option =
  let rec cost ~outer_aliases ~evals (q : query) : float * bool =
    let probes = Exec.Sysr_iteration.probes catalog ~outer_aliases q in
    let frame_cost, fanout, any_probe =
      List.fold_left
        (fun (cost_acc, rows_so_far, any) (f : from_item) ->
          let alias = from_alias f in
          let tuples = float_of_int (max 1 (Catalog.tuples catalog f.rel)) in
          let pages = float_of_int (max 1 (Catalog.pages catalog f.rel)) in
          match List.find_opt (fun (a, _, _) -> String.equal a alias) probes with
          | Some (_, column, _) ->
              let matches, descent =
                match Catalog.lookup catalog f.rel with
                | None -> (1., 1.)
                | Some schema -> (
                    match Schema.find_opt schema column with
                    | None | (exception Schema.Ambiguous _) -> (1., 1.)
                    | Some key_col ->
                        let cs =
                          Stats.column (Catalog.stats catalog f.rel) key_col
                        in
                        let m =
                          if cs.Stats.distinct > 0 then
                            tuples /. float_of_int cs.Stats.distinct
                          else 1.
                        in
                        let h =
                          match Catalog.index_on catalog f.rel ~key_col with
                          | Some idx ->
                              float_of_int (Storage.Btree.height idx)
                          | None -> 1.
                        in
                        (m, h))
              in
              ( cost_acc +. (evals *. rows_so_far *. (descent +. matches)),
                rows_so_far *. Float.max 1. matches,
                true )
          | None ->
              ( cost_acc +. (evals *. rows_so_far *. pages),
                rows_so_far *. tuples,
                any ))
        (0., 1., false) q.from
    in
    let aliases = outer_aliases @ List.map from_alias q.from in
    List.fold_left
      (fun (c, anyp) p ->
        match subquery_of p with
        | None -> (c, anyp)
        | Some sub ->
            if is_correlated sub then
              let sc, sp =
                cost ~outer_aliases:aliases ~evals:(evals *. fanout) sub
              in
              (c +. sc, anyp || sp)
            else
              (* one evaluation, then each innermost assignment re-reads
                 the materialized value list (approximated at one page) *)
              let sc, sp = cost ~outer_aliases:[] ~evals:1. sub in
              (c +. sc +. (evals *. fanout), anyp || sp))
      (frame_cost, any_probe)
      q.where
  in
  if not (has_subquery q) then None
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
    (Catalog.lookup catalog kp.inner_rel, Catalog.lookup catalog kp.outer_rel)
  with
  | Some inner_schema, Some outer_schema -> (
      match Schema.find_opt inner_schema kp.inner_col with
      | None | (exception Schema.Ambiguous _) -> None
      | Some key_col -> (
          match Catalog.index_on catalog kp.inner_rel ~key_col with
          | None -> None
          | Some idx ->
              let outer_rows =
                float_of_int (Catalog.tuples catalog kp.outer_rel)
              in
              let distinct c =
                match Schema.find_opt outer_schema c with
                | Some i ->
                    float_of_int
                      (Stats.column (Catalog.stats catalog kp.outer_rel) i)
                        .Stats.distinct
                | None | (exception Schema.Ambiguous _) -> outer_rows
              in
              let keys =
                Float.min outer_rows
                  (List.fold_left (fun acc c -> acc *. distinct c) 1.
                     kp.outer_cols)
              in
              let height = Storage.Btree.height idx in
              let pages = float_of_int (Catalog.pages catalog kp.inner_rel) in
              if keys *. float_of_int height < pages then
                Some { kt_keys = keys; kt_height = height; kt_pages = pages }
              else None))
  | _ -> None

let describe_keyed_temp2 k =
  Printf.sprintf "%.0f keys × height %d = %.0f < %.0f pages" k.kt_keys
    k.kt_height
    (k.kt_keys *. float_of_int k.kt_height)
    k.kt_pages

(** Plan-tree cost/cardinality estimation for EXPLAIN annotation.

    Re-derives, bottom-up over a finished physical plan, the numbers the
    planner used while lowering: Selinger-style cardinalities from catalog
    statistics and the paper's page-I/O cost arithmetic (§4/§7 shapes,
    Kim's ceilinged logs).  [cost] is cumulative — the estimated page I/Os
    to produce the operator's full output once, children included. *)

type t = { rows : float; pages : float; cost : float }

(** Per-node estimates for every operator of the plan, keyed by node
    {e physical identity}.  Referenced tables (including already-registered
    temps) must exist in the catalog.
    @raise Storage.Catalog.Unknown_table / Exec.Plan.Plan_error otherwise. *)
val analyze : Storage.Catalog.t -> Exec.Plan.node -> (Exec.Plan.node * t) list

(** Estimate for the plan root. *)
val root : Storage.Catalog.t -> Exec.Plan.node -> t

(** {!analyze} packaged as the lookup {!Exec.Explain.render} expects. *)
val estimator :
  Storage.Catalog.t ->
  Exec.Plan.node ->
  Exec.Plan.node ->
  Exec.Explain.est option

type fallback = {
  fb_outer_rows : float;  (** outer FROM cardinality (cross-product bound) *)
  fb_nested_evals : float;  (** inner evaluations nested iteration pays *)
  fb_batched_evals : float;  (** inner evaluations batching pays *)
}
(** Costing for {!Core}'s Auto fallback when the transformation refuses:
    nested iteration re-evaluates each correlated WHERE subquery once per
    outer tuple, {!Batched_nest} once per distinct correlation-key tuple
    (estimated from per-column distinct counts, plus one batch for NULLs). *)

(** [None] when the query has no batchable correlated WHERE subquery
    (uncorrelated only, or a shape {!Batched_nest} would refuse). *)
val batched_fallback : Storage.Catalog.t -> Sql.Ast.query -> fallback option

(** The Auto decision: true iff batching is estimated to save inner
    evaluations over nested iteration. *)
val prefer_batched : Storage.Catalog.t -> Sql.Ast.query -> bool

(** The summed page counts of every base relation [q] references: a lower
    bound on the page I/O of a transformed program that reads each of them
    in full at least once, as the paper's temps do.  Programs that probe a
    B-tree instead (a keyed NEST-JA2 TEMP2, NEST-N-J's index nested-loop
    joins) are not bounded by it.  Unknown relations contribute nothing. *)
val transformed_floor : Storage.Catalog.t -> Sql.Ast.query -> float

(** Estimated page I/O of evaluating [q] by nested iteration with the
    current index inventory ({!Exec.Sysr_iteration}'s probes): frames pay
    a full rescan per enumeration unless probed (descent plus a data-page
    fetch per match); correlated subqueries re-run per innermost
    assignment.  [None] when [q] has no WHERE subquery or no probe
    applies anywhere — the crossover question then does not arise.
    Comparing the result against {!transformed_floor} is {!Core}'s Auto
    decision for untransformed indexed iteration. *)
val indexed_nested_cost :
  Storage.Catalog.t -> Sql.Ast.query -> float option

type keyed_temp2 = {
  kt_keys : float;  (** TEMP1 keys: non-NULL distinct outer values *)
  kt_height : int;  (** height of the inner relation's B-tree *)
  kt_pages : float;  (** pages of the inner relation *)
}

(** NEST-JA2's keyed-TEMP2 decision for {!Nest_ja2.transform}'s
    [probe_keys]: [Some] iff [inner_col] of [inner_rel] has a B-tree and
    keys × height (one descent per key, a lower bound on probing) is below
    the inner relation's pages (what the paper's TEMP2 scans).  The key
    count is the product of the non-NULL distinct counts of [outer_cols],
    capped by the outer cardinality. *)
val keyed_temp2 : Storage.Catalog.t -> Nest_ja2.key_probe -> keyed_temp2 option

(** ["128 keys × height 4 = 512 < 1000 pages"]. *)
val describe_keyed_temp2 : keyed_temp2 -> string

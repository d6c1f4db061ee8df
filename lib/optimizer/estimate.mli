(** The page-I/O cost vocabulary, and the estimators built from it.

    One definition of each catalog-statistics and B-tree formula of the
    model (§4/§7 shapes): filter and equi-join selectivity, page
    estimates, index-probe and index-range cost.  {!Planner} ranks
    alternatives with them while lowering; {!analyze} re-derives them over
    a finished physical plan for EXPLAIN; Auto's pricers
    ({!indexed_nested_cost}, {!batched_cost}) and NEST-JA2's {!keyed_temp2}
    rule price whole strategies with them.

    The formulas are shared; two inputs are not, so EXPLAIN's numbers can
    differ from the ones the planner ranked on:
    - a filtered nested-loop inner: the planner prices each rescan at the
      base relation's pages, {!analyze} at the filter output's pages
      (what [Exec.Plan] materializes and rescans);
    - a left-outer join: {!analyze} floors its rows at the outer
      cardinality, the planner does not.

    A stored relation is named by the [from_item] that reads it; a column
    reference qualified by another alias is not one of its columns. *)

(** {1 The cost vocabulary} *)

(** Pages [rows] tuples of [schema] fill (at least 1). *)
val est_pages : Storage.Catalog.t -> rows:float -> Relalg.Schema.t -> float

(** A column of an alias other than the relation's: a parameter, bound
    when an [Apply] re-opens the plan. *)
val is_param : Sql.Ast.from_item -> Sql.Ast.col_ref -> bool

(** Combined selectivity of pushed-down filters over a stored relation:
    comparisons with a literal use its per-column statistics, comparisons
    with a parameter the same statistics for an unknown value (1/distinct
    for equality, the range default for a range), every other predicate —
    and every filter over a non-stored input ([None]) — the range
    default. *)
val filter_selectivity :
  Storage.Catalog.t -> Sql.Ast.from_item option -> Sql.Ast.predicate list -> float

(** Selinger's equi-join cardinality (at least 1): the cross product
    scaled by 1/max(distinct) per equality on a column of the right side,
    the equality default without statistics, the range default for a join
    with no equality. *)
val join_rows :
  Storage.Catalog.t ->
  Sql.Ast.from_item option ->
  left_rows:float ->
  right_rows:float ->
  Sql.Ast.col_ref list ->
  float

(** The B-tree on the column a reference names, with that column's
    statistics. *)
val index_on :
  Storage.Catalog.t ->
  Sql.Ast.from_item ->
  Sql.Ast.col_ref ->
  (Storage.Btree.t * Storage.Stats.column_stats) option

type probe = {
  probe_cost : float;  (** descent + [probe_matches] data-page fetches *)
  probe_matches : float;  (** tuples / distinct *)
}

(** One equality probe of the B-tree on a column; [None] without one. *)
val index_probe :
  Storage.Catalog.t -> Sql.Ast.from_item -> Sql.Ast.col_ref -> probe option

(** {1 Plan-tree estimation (EXPLAIN)} *)

(** [cost] is cumulative — the estimated page I/Os to produce the
    operator's full output once, children included. *)
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

(** {1 Auto's pricers}

    Nested iteration and batched execution priced in page I/O from the
    same frames: each enumeration of an unprobed frame rescans its
    relation; a frame {!Exec.Sysr_iteration} probes through a B-tree
    ({!index_probe}) is paid once per distinct binding when one probe's
    pages (descent + matches) fit the pool, since a repeat re-reads the
    pages the identical probe just left resident; batching evaluates each
    correlated WHERE subquery once per distinct correlation-key tuple.
    Distinct counts are products of per-column distinct counts, capped by
    the enumeration count; a NULL key adds a batch but never a probe. *)

(** Estimated page I/O of evaluating [q] by nested iteration with the
    current index inventory.  [None] when [q] has no WHERE subquery or no
    probe applies anywhere — Auto's choice then does not involve an index
    and stays with its ladder. *)
val indexed_nested_cost :
  Storage.Catalog.t -> Sql.Ast.query -> float option

(** Estimated page I/O of batched execution: the outer block's frames plus
    one evaluation per batch of each batchable subquery.  [None] when the
    query has no batchable correlated WHERE subquery (uncorrelated only,
    or a shape {!Batched_nest} refuses). *)
val batched_cost : Storage.Catalog.t -> Sql.Ast.query -> float option

(** What Auto does after the transformation refuses: true iff batched
    execution is priced strictly below nested iteration.  Without an index
    probe both pay the same per evaluation, so this compares evaluation
    counts. *)
val prefer_batched : Storage.Catalog.t -> Sql.Ast.query -> bool

type keyed_temp2 = {
  kt_keys : float;  (** TEMP1 keys: non-NULL distinct outer values *)
  kt_height : int;  (** height of the inner relation's B-tree *)
  kt_pages : float;  (** pages of the inner relation *)
  kt_probe : float;  (** one key's probe ({!index_probe}'s cost) *)
}

(** NEST-JA2's keyed-TEMP2 decision for {!Nest_ja2.transform}'s
    [probe_keys]: [Some] iff [inner_col] of [inner_rel] has a B-tree and
    keys × height (one descent per key, a lower bound on probing) is below
    the inner relation's pages (what the paper's TEMP2 scans).  The key
    count is the product of the non-NULL distinct counts of [outer_cols],
    capped by the outer cardinality. *)
val keyed_temp2 : Storage.Catalog.t -> Program.key_probe -> keyed_temp2 option

(** ["128 keys × height 4 = 512 < 1000 pages"]. *)
val describe_keyed_temp2 : keyed_temp2 -> string

(** {1 The transformed program's side of the §7 crossover} *)

(** A lower bound on the page I/O of [program], the transformation of
    [q]: every base relation [q] references is read in full at least once,
    but the inner relation of each keyed TEMP2 in [program.probes], whose
    keys cost {!keyed_temp2}'s keys × one probe ([kt_probe]) — the probes
    nested iteration makes — and each of the program's temps writes at
    least one page, except a temp [pipelined] names (one the planner
    streams into its reader instead of writing, {!Planner.pipelined}).
    NEST-N-J's index nested-loop joins and index scans can read less than
    a full relation and are not bounded by it. *)
val transformed_bound :
  pipelined:(string -> bool) ->
  Storage.Catalog.t ->
  Sql.Ast.query ->
  Program.t ->
  float

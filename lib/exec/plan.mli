(** Physical plans for every strategy: canonical queries, NEST-JA2 temp
    definitions, and the untransformed strategies' dependent joins.

    Plans remain printable (EXPLAIN); each execution compiles its plan once,
    resolving column references to positions against each node's output
    schema, and then opens operators — once, or once per binding for a
    plan an [Apply] or an index nested-loop join re-opens.  Inside such a
    plan, a column that no operator below produces is a {e parameter}: a
    slot fixed at compile time in the innermost enclosing re-opening
    operator whose input has the column, read from the row it has bound
    for the current open.

    Two engines execute plans ({!run}, {!run_vec}).  Each physical
    operator has one implementation: the paper's sorts, sort-merge and
    index joins, sorted grouping and [Apply] in {!Iterator}, the
    beyond-the-paper hash operators in {!Vec}; the engine picks the
    implementation of scans, filters, projections and nested-loop
    joins. *)

type join_method = Nested_loop | Sort_merge | Index_nl | Hash

type join_kind = Inner | Left_outer

type agg_item = { fn : Sql.Ast.agg; out_name : string }

(** [(value, inclusive)] endpoint of an index range probe: a literal, or a
    parameter column. *)
type bound = Sql.Ast.scalar * bool

(** A range (not an equality) with a parameter bound: an [Index_scan] of
    it chooses its access path per binding. *)
val per_binding : bound option -> bound option -> bool

(** [Per_row] re-opens an [Apply]'s subqueries for every input row (nested
    iteration); [Per_key] drains its input, then evaluates each subquery
    once per distinct key tuple, in key order, NULL keys sharing one
    (batched bindings). *)
type apply_mode = Per_row | Per_key

type node =
  | Scan of string
  | Index_scan of {
      table : string;  (** base table carrying the B-tree *)
      alias : string;  (** output provenance; equals [table] when unaliased *)
      column : string;  (** indexed column on the table's schema *)
      lo : bound option;  (** missing bound = unbounded on that side *)
      hi : bound option;  (** lo = hi = Some (v, true) is an equality probe *)
    }
      (** stream a B-tree probe in key order: O(height) descent, leaf
          walk, data pages through the pool.  An equality probe is one
          lookup: its matches are fetched together, at the first pull.
          A {!per_binding} range
          probes only when, for the bound value, the probe is estimated
          cheaper than reading the relation
          ({!Storage.Catalog.probe_beats_scan}); otherwise it scans the heap
          and keeps the rows within the bounds, in heap order. *)
  | Rename of string * node
      (** re-tag output provenance: an aliased scan *)
  | Filter of Sql.Ast.predicate list * node
      (** conjunction; [Cmp] with Col/Lit operands only *)
  | Project of Sql.Ast.col_ref list * node
  | Distinct of node
  | Hash_distinct of node
      (** beyond the paper: hash dedup, no sort, no page I/O *)
  | Sort of Sql.Ast.col_ref list * node
  | Join of {
      method_ : join_method;
      kind : join_kind;
      cond : (Sql.Ast.col_ref * Sql.Ast.cmp * Sql.Ast.col_ref) list;
      residual : Sql.Ast.predicate list;
      left : node;
      right : node;
    }
  | Group_agg of group_agg
  | Hash_group_agg of group_agg
      (** beyond the paper: hash aggregation over unsorted input *)
  | Apply of apply
      (** the dependent join: filter [outer]'s rows by [preds], whose
          nested predicates re-open their subquery's plan *)

and group_agg = {
  group_by : Sql.Ast.col_ref list;
  aggs : agg_item list;
  input : node;
}

and apply = {
  mode : apply_mode;
  preds : (Sql.Ast.predicate * subplan option) list;
      (** all evaluated for every row, in order, no short-circuit; a
          nested predicate carries its subquery's plan *)
  outer : node;
}

and subplan = {
  keys : Sql.Ast.col_ref list;  (** the subquery's free (correlation) columns *)
  inner : node;
      (** per row: re-opened under each row, drained in full; an
          uncorrelated value list is materialized at first use and
          re-read per row, an uncorrelated EXISTS re-runs *)
}

exception Plan_error of string

(** Schema the node produces.  @raise Plan_error / Catalog.Unknown_table *)
val output_schema : Storage.Catalog.t -> node -> Relalg.Schema.t

(** Which executor runs a plan's scans, filters, projections and
    nested-loop joins: [Tuple] is the Volcano engine, the default;
    [Vectorized] pulls column-major {!Batch.t} chunks through {!Vec},
    falling back to the tuple operators (through adapters) for sorts,
    sort-merge and index nested-loop joins, [Group_agg] and [Apply].  The
    hash operators ([Hash_distinct], hash [Join], [Hash_group_agg]) have
    one implementation, {!Vec}'s, which the tuple engine runs between
    adapters; only its global aggregate (a [Hash_group_agg] with no group
    key, re-opened per outer row by nested iteration) is
    {!Iterator.global_agg}.  Both engines return the same rows with the
    same logical reads and physical writes; physical reads may differ once
    LRU evicts, since a vectorized scan requests a chunk's pages
    together. *)
type engine = Tuple | Vectorized

val engine_name : engine -> string

(** Parses ["tuple"], ["vectorized"] (or ["vec"]). *)
val engine_of_string : string -> engine option

(** An observer intercepts every open of every operator: it receives the
    plan node and a thunk opening its iterator (including eager work —
    sorts, materializations, hash builds) and returns the iterator to use,
    usually the built one wrapped with instrumentation.  {!Explain} supplies
    one to collect per-operator {!Metrics} without the executor knowing.
    [vec_observer] is the same protocol for the vectorized engine. *)
type observer = node -> (unit -> Iterator.t) -> Iterator.t

type vec_observer = node -> (unit -> Vec.t) -> Vec.t

(** Execute and collect the rows (page traffic through the catalog's
    pager), then delete the value lists an [Apply] materialized.
    A [Sort] or [Distinct] re-opened under an [Apply] deletes its previous
    open's sorted run.
    Sort-merge joins require plan-inserted [Sort]s (or born-sorted inputs);
    [Group_agg] requires input sorted on [group_by] ([Hash_group_agg] does
    not).  [observe] wraps every operator each time it is opened, so once
    per loop of a plan an [Apply] re-opens; compiling happens before, and
    outside, every observed open.
    @raise Plan_error on malformed plans.
    @raise Eval.Runtime_error where nested iteration would. *)
val run : ?observe:observer -> Storage.Catalog.t -> node -> Relalg.Relation.t

(** {!run} batch-at-a-time: scans, filters, projections, the hash
    operators and nested-loop joins run vectorized, everything else through
    tuple adapters.  A nested-loop join's inner is the same heap the tuple
    engine rescans — the stored table, or the inner subtree materialized at
    each open from its batches' stored rows — and each rescan requests its
    pages in the same order. *)
val run_vec :
  ?observe:vec_observer -> Storage.Catalog.t -> node -> Relalg.Relation.t

(** One-line operator description, without children. *)
val label : node -> string

(** Immediate sub-plans, in display order ([Join]: left then right). *)
val children : node -> node list

(** Indented EXPLAIN rendering: one {!label} line per operator. *)
val pp : ?indent:int -> Format.formatter -> node -> unit

val to_string : node -> string

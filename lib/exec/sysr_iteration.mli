(** Paged nested iteration: System R's strategy with honest page I/O,
    lowered to a {!Plan} and run by the ordinary executor.

    FROM clauses scan heap files through the buffer pool; correlated
    subqueries re-scan their stored relations once per outer assignment
    (the cost the paper attacks); uncorrelated subqueries are evaluated
    once, their value list is {e materialized to pages}, and each
    membership probe re-reads it through the pool — Kim's type-N cost
    regime.  Where a B-tree serves a WHERE equality with an already-bound
    value, a frame probes it instead of rescanning (§7's regime); the
    rows it skips are those the conjunction rejects.  Results are
    identical to {!Nested_iter} (property-tested). *)

(** Per block: the FROM frames joined in FROM order (rescans, or the
    {!probes}; enclosing blocks' columns are parameters), a per-row
    [Apply] of the whole WHERE conjunction, then {!select_list}. *)
val lower : Storage.Catalog.t -> Sql.Ast.query -> Plan.node

(** A block's select list over its qualifying rows, in memory:
    [Hash_group_agg], [Project], [Hash_distinct].  Batched bindings
    shares it. *)
val select_list : Sql.Ast.query -> Plan.node -> Plan.node

(** [lower], {!Plan.run}, {!Presentation.present}.
    @raise Eval.Runtime_error as the in-memory evaluator does. *)
val run : Storage.Catalog.t -> Sql.Ast.query -> Relalg.Relation.t

(** The index probes the enumeration of [q] would use, as
    [(frame alias, indexed column, bound scalar)] — one per frame at
    most.  [outer_aliases] are the enclosing blocks' FROM aliases ([[]]
    at top level).  Cost models and EXPLAIN use this to price indexed nested
    iteration without running it. *)
val probes :
  Storage.Catalog.t ->
  outer_aliases:string list ->
  Sql.Ast.query ->
  (string * string * Sql.Ast.scalar) list

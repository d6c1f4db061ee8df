(** Batched nested execution — Guravannavar's "batched bindings".

    The third evaluation strategy, between nested iteration and the
    NEST-JA2 rewrites, lowered to a physical plan: each block's outer part
    (FROM chain plus subquery-free predicates) is lowered by the ordinary
    {!Planner}, and a per-key [Apply] over it evaluates each WHERE
    subquery once per distinct correlation-key tuple — deduplicated
    null-safely ([<=>] semantics: NULL keys form one tuple,
    [Int]/[Float] keys that compare equal share one), in key order — with
    the keys bound as the inner plan's parameters (a range against one on
    an indexed column choosing probe or scan per binding); outer rows are
    filtered against the memoized answers.  Correctness is nested
    iteration's, cost is one inner evaluation per {e distinct} binding
    instead of per outer row — and no transformation guard applies, so
    the Kim type-N/J/JA
    shapes the guarded rewrites refuse (non-equijoin correlation, COUNT
    over nullable keys, correlated subqueries below duplicate-sensitive
    aggregates) all run. *)

(** The one shape batching cannot reach: a correlated column outside a
    WHERE predicate (SELECT / GROUP BY / aggregate argument).  Callers
    ({!Core}) surface this as a refusal, exactly like a transformation
    guard declining. *)
exception Unsupported of string

type result = { relation : Relalg.Relation.t }

(** The correlation columns a subquery would batch on (empty =
    uncorrelated, evaluated once).
    @raise Unsupported on a free ref outside a WHERE predicate. *)
val correlation_keys : Sql.Ast.query -> Sql.Ast.col_ref list

(** The batched plan of an analyzed query.  [force]/[mode] govern the
    planner lowering of every block's outer part.
    @raise Unsupported on unbatchable correlation at any level
    @raise Planner.Planning_error as the planner does. *)
val lower :
  ?force:Planner.join_choice ->
  ?mode:Planner.mode ->
  Storage.Catalog.t ->
  Sql.Ast.query ->
  Exec.Plan.node

(** {!lower}, then run ([session] instruments every
    operator, re-opened inner plans included), then present the result as
    nested iteration does (output schema, DISTINCT order, ORDER BY).
    @raise Unsupported on unbatchable correlation (see above)
    @raise Exec.Eval.Runtime_error exactly where nested iteration would
    (multi-row scalar subqueries, multi-column value subqueries).
    [engine] is ignored: there is one executor. *)
val run :
  ?force:Planner.join_choice ->
  ?mode:Planner.mode ->
  ?engine:Exec.Plan.engine ->
  ?session:Exec.Explain.session ->
  Storage.Catalog.t ->
  Sql.Ast.query ->
  result

(** Typed validation of physical plans ({!Exec.Plan.node}).

    The plan contract is stated once, by the executor's compile step
    ({!Exec.Plan.check}).  A plan that does not compile draws exactly one
    diagnostic carrying the compiler's message: NQ110 when a table, column
    or parameter does not resolve or a predicate, value subquery or
    aggregate list cannot compile, NQ115 when an operator's method
    contract is broken.

    A plan that compiles gets the checker's own walk, which infers a
    two-point nullability per column, bottom-up, and checks what
    compilation cannot see: the type compatibility of comparisons and join
    conditions (NQ111), and null-provenance through preserving joins
    (NQ112: a COUNT above a left outer join must count a column the padding
    can make NULL, or empty groups count 1 — the paper's §5.2.1 bug at the
    plan level).

    Every plan {!Optimizer.Planner.lower} produces checks clean; the
    diagnostics exist to catch hand-built or miscompiled plans and
    regressions in the lowering rules.  Violations carry [Sql.Ast.no_span]
    (plans have no source positions). *)

(** All violations against a live catalog: its schemas, nullability
    ({!Storage.Catalog.column_nullable}) and indexes.  An empty list means
    the plan type-checks. *)
val check_catalog : Storage.Catalog.t -> Exec.Plan.node -> Diagnostics.t list

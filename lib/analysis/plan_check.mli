(** Typed validation of physical plans ({!Exec.Plan.node}).

    Infers, bottom-up, a typed schema — column name, provenance, type and a
    two-point nullability lattice value — for every node of a physical
    plan, and checks the invariants the executors otherwise only assume:
    column resolution and arity agreement across operators (NQ110), type
    compatibility of comparisons and join conditions (NQ111),
    null-provenance through preserving joins (NQ112: a COUNT above a left
    outer join must count a column the padding can make NULL, or empty
    groups count 1 — the paper's §5.2.1 bug at the plan level), group-key /
    aggregate-argument scoping (NQ113), provable sort-contract violations
    (NQ114) and physical operator method contracts (NQ115).

    The checks are sound over planner output: every plan
    {!Optimizer.Planner.lower} produces checks clean; the diagnostics exist to catch hand-built or miscompiled plans
    and regressions in the lowering rules.  Violations carry
    [Sql.Ast.no_span] (plans have no source positions). *)

(** All violations, every node, against a live catalog: its schemas,
    nullability ({!Storage.Catalog.column_nullable}), order metadata and
    indexes.  An empty list means the plan type-checks. *)
val check_catalog : Storage.Catalog.t -> Exec.Plan.node -> Diagnostics.t list

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
    {!Optimizer.Planner.lower} produces (under either engine) checks
    clean; the diagnostics exist to catch hand-built or miscompiled plans
    and regressions in the lowering rules.  Violations carry
    [Sql.Ast.no_span] (plans have no source positions). *)

(** Two-point nullability lattice: [Non_null] means no execution of the
    plan can place SQL NULL in the column; [Nullable] is the top. *)
type nullability = Non_null | Nullable

type tcol = {
  t_rel : string;  (** provenance alias *)
  t_name : string;
  t_ty : Relalg.Value.ty;
  t_nullable : nullability;
}

type tenv = {
  lookup : string -> Relalg.Schema.t option;  (** base/temp table schemas *)
  base_nullable : rel:string -> string -> bool;
      (** may the stored column contain NULL?  (catalog statistics; [true]
          when unknown) *)
  sorted_on : string -> int list option;
      (** catalog order metadata: column positions the stored relation is
          sorted on, when recorded *)
  has_index : string -> column:string -> bool;
}

(** All violations, every node.  An empty list means the plan type-checks;
    both engines run a plan under the same operator contracts. *)
val check : tenv -> Exec.Plan.node -> Diagnostics.t list

(** {!check} against a live catalog (schemas, statistics, order metadata,
    indexes). *)
val check_catalog : Storage.Catalog.t -> Exec.Plan.node -> Diagnostics.t list

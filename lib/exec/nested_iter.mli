(** Nested iteration over in-memory relations: the semantic oracle.

    This is the System R evaluation strategy the paper treats as ground
    truth ("matches the result obtained by nested iteration"); correlated
    inner blocks are conceptually re-evaluated per outer tuple.  For the
    paged, I/O-measured variant of the same strategy see
    {!Sysr_iteration}. *)

(** The same exception as {!Eval.Runtime_error}. *)
exception Runtime_error of string

(** Evaluate a query block under an environment of outer bindings.  A
    transformed program's [Cmp_outer] predicates are its left outer join:
    their right-hand alias is padded with NULLs (§5.2).
    @raise Runtime_error on scalar subqueries returning several rows or
    multi-column subqueries. *)
val eval_query :
  lookup_relation:(string -> Relalg.Relation.t) ->
  Env.t ->
  Sql.Ast.query ->
  Relalg.Relation.t

(** Run a whole (analyzed) query against a catalog. *)
val run : Storage.Catalog.t -> Sql.Ast.query -> Relalg.Relation.t

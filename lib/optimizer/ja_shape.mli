(** Recognition of the type-JA predicate shape shared by NEST-JA and
    NEST-JA2: a scalar comparison against a single-aggregate inner block
    whose WHERE clause splits into correlation predicates (against one outer
    relation) and local predicates. *)

(** A correlation predicate, normalized to [inner op outer]. *)
type correlation = {
  inner : Sql.Ast.col_ref;
  op : Sql.Ast.cmp;
  outer : Sql.Ast.col_ref;
}

type t = {
  x : Sql.Ast.scalar;  (** left side of the nested predicate *)
  op0 : Sql.Ast.cmp;  (** its comparison operator *)
  sub : Sql.Ast.query;  (** the inner block *)
  agg : Sql.Ast.agg;  (** the inner SELECT's aggregate *)
  outer_alias : string;  (** the single correlated outer relation *)
  correlations : correlation list;
  local_preds : Sql.Ast.predicate list;
}

(** Table aliases a scalar references (at most one). *)
val scalar_tables : Sql.Ast.scalar -> string list

(** @raise Program.Refused on any shape the paper's algorithms do not define
    (several outer relations, outer-only predicates inside the inner block,
    aggregate over an outer column, remaining nested predicates, ...). *)
val extract : Sql.Ast.predicate -> t

(** Outer join-column names, deduplicated, in first-appearance order. *)
val outer_columns : t -> string list

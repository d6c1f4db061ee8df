(** ORDER BY as a final presentation sort on the outermost result. *)
val apply_order : Sql.Ast.query -> Relalg.Relation.t -> Relalg.Relation.t

(** Every strategy's result as delivered: the analyzer's output schema, a
    DISTINCT result listed sorted, then {!apply_order}. *)
val present :
  Storage.Catalog.t -> Sql.Ast.query -> Relalg.Relation.t -> Relalg.Relation.t

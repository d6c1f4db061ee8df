(** Kim's original algorithm NEST-JA (§3.2) — {e kept buggy on purpose}.

    Groups the inner relation alone on its correlation columns, so COUNT
    can never be 0 (the §5.1 COUNT bug) and range correlations aggregate
    the wrong tuples (the §5.3 bug).  Exists to reproduce the paper's
    wrong-answer tables (experiments E3-E5); use {!Nest_ja2} for the fixed
    algorithm. *)

(** Returns the temp definition and the canonical rewritten query.
    @raise Program.Refused on shape mismatch. *)
val transform :
  Sql.Ast.query ->
  Sql.Ast.predicate ->
  temp_name:string ->
  Program.temp * Sql.Ast.query

(** Algorithm NEST-N-J (Kim, restated in §3.1 of the paper): merge a
    type-N or type-J inner block into the outer block — combine FROM
    clauses, AND the WHERE clauses replacing IN by [=], keep the outer
    SELECT.  Inner bindings colliding with outer aliases are renamed first.

    Known limitation (Kim's Lemma 1, inherited by the paper): the join may
    change result {e multiplicity}; see DESIGN.md and [Nest_g.semantics]. *)

(** Merge one nested predicate ([x IN sub] or [x op sub], [sub]
    non-aggregated and GROUP-BY-free).  [pred] must be physically a member
    of [q.where].
    @raise Program.Refused otherwise (aggregated block, NOT IN, ...). *)
val merge_predicate : Sql.Ast.query -> Sql.Ast.predicate -> Sql.Ast.query

(** Merge every transformable top-level nested predicate. *)
val merge_all : Sql.Ast.query -> Sql.Ast.query

(** Multiplicity-preserving variant: replace an {e uncorrelated} IN-block
    by an equality join against a DISTINCT temp table (the INGRES
    projection idiom of §5.4.1).  Returns the rewritten query and the temp
    to materialize first.
    @raise Program.Refused for correlated or aggregated blocks. *)
val merge_predicate_dedup :
  Sql.Ast.query ->
  Sql.Ast.predicate ->
  temp_name:string ->
  Sql.Ast.query * Program.temp

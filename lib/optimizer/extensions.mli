(** §8 extension rewrites: EXISTS / NOT EXISTS / ANY / ALL to the scalar
    and set-containment forms the transformation algorithms accept
    (EXISTS → 0 < COUNT; range-ANY → MIN/MAX; =ANY → IN; !=ALL → NOT IN).
    The paper's rules for [!= ANY] and range-[ALL] are unsound under SQL's
    three-valued logic (and, for ALL, on empty inners); by default both
    use a COUNT form guarded against alias capture.  It is exact for
    [!= ANY] with NULLs anywhere (in WHERE position); for range-[ALL] it
    also requires the [nullable] callback to prove neither comparison
    operand can be NULL, refusing ([Program.Refused]) otherwise.  [paper:true] reproduces the published
    rules verbatim for the ablation suites.  The full soundness analysis
    is in the implementation header and DESIGN.md. *)

(** [nullable ~rel col] answers "may column [col] of relation [rel] be
    NULL?".  The default answers [true] for everything (conservative:
    guarded rewrites refuse). *)
val default_nullable : rel:string -> string -> bool

(** Guard shared by every COUNT-form rewrite that inlines [x op item] into
    a subquery: raises {!Program.Refused} unless [x] and [item] are provably
    non-NULL under [nullable] (resolved through [scope], an alias →
    relation map for the enclosing blocks) and [x]'s alias is not bound
    inside the subquery. *)
val check_count_form :
  nullable:(rel:string -> string -> bool) ->
  scope:(string * string) list ->
  Sql.Ast.scalar ->
  Sql.Ast.query ->
  Sql.Ast.col_ref ->
  unit

(** Rewrite one predicate (identity on non-quantified predicates).
    [scope] maps enclosing aliases to relations for the guards.
    @raise Program.Refused for [= ALL] and [<=> ANY/ALL] (no transformation),
    and for guarded forms whose soundness cannot be proven. *)
val rewrite_predicate :
  ?paper:bool ->
  ?nullable:(rel:string -> string -> bool) ->
  ?scope:(string * string) list ->
  Sql.Ast.predicate ->
  Sql.Ast.predicate

(** Apply the rewrites at every nesting level (bottom-up). *)
val rewrite_query :
  ?paper:bool ->
  ?nullable:(rel:string -> string -> bool) ->
  ?scope:(string * string) list ->
  Sql.Ast.query ->
  Sql.Ast.query

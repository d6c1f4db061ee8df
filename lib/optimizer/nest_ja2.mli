(** Algorithm NEST-JA2 (§6 of the paper): the corrected type-JA
    transformation.

    Step 1 projects the outer correlation columns DISTINCT (restricted by
    the outer block's simple predicates); step 2 builds the aggregate temp
    by joining the inner side with that projection — a LEFT OUTER join via
    a restricted+projected TEMP2 when the aggregate is COUNT (COUNT-star is
    converted to COUNT over the inner join column, §5.2.1) — grouped by the
    outer columns; step 3 rewrites the query with equality joins against
    the temp. *)

(** [probe_note] is the one-line report of a keyed TEMP2 (["NEST-JA2:
    TEMP#2 probes SUPPLY.PNUM with TEMP#1's keys (...)"]), [None] for the
    paper's TEMP2. *)
type result = {
  temps : Program.temp list;
  rewritten : Sql.Ast.query;
  probe_note : string option;
  probe : Program.key_probe option;  (** the keyed TEMP2's, with its note *)
}

(** [transform q pred ~fresh ()] rewrites the type-JA predicate [pred] of
    [q]; [fresh] allocates temp names (TEMP1 [, TEMP2], TEMP3 in order).

    [rel_of_alias] resolves the correlated alias when an {e enclosing}
    block binds it (NEST-G's trans-aggregate case); by default only [q]'s
    FROM is consulted.

    [project_outer:false] skips step 1's DISTINCT — the still-broken §5.4
    intermediate variant, kept for the paper's duplicates table.

    [probe_keys] (default: never) decides, per [=] correlation, whether
    the COUNT branch builds TEMP2 as [TEMP1 ⋈ inner] on the correlation
    columns instead of restricting the whole inner relation; [Some why]
    accepts, and [why] ends up in [probe_note].  It is asked only when
    every correlation is [=], the inner FROM is one relation and
    [project_outer] holds.

    @raise Program.Refused when [pred] is not type-JA shaped. *)
val transform :
  Sql.Ast.query ->
  Sql.Ast.predicate ->
  fresh:(unit -> string) ->
  ?rel_of_alias:(string -> string option) ->
  ?project_outer:bool ->
  ?probe_keys:(Program.key_probe -> string option) ->
  unit ->
  result

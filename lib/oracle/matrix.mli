(** The execution matrix: one query evaluated by the non-optimizing
    reference (in-memory nested iteration + presentation ORDER BY) and by
    every candidate path — paged nested iteration; the NEST-G rewrite
    under every (planner mode x forced join method) cell; the
    batched-bindings strategy ({!Optimizer.Batched_nest}) under every
    (mode x join choice) cell — the third independent strategy, accepting
    shapes the guarded rewrites refuse; the end-to-end Auto ladder
    (transform, else batched, else nested iteration) in each mode; and
    the same with a B-tree on every column.  A candidate may
    {e refuse} (not transformable / soundness guard / the one unbatchable
    shape); a candidate that answers must agree with the reference under
    the NULL-aware comparator. *)

type candidate =
  | Paged_nested
  | Rewrite of {
      mode : Optimizer.Planner.mode;
      force : Optimizer.Planner.join_choice;
    }
  | Batched of {
      mode : Optimizer.Planner.mode;
      force : Optimizer.Planner.join_choice;
    }
  | Auto_path of { mode : Optimizer.Planner.mode }
  | Indexed_nested
      (** paged nested iteration with a B-tree on every column — the
          probe-based enumeration must agree with full rescans *)
  | Indexed_rewrite of { mode : Optimizer.Planner.mode }
      (** planner free to choose IndexScan / index nested-loop joins *)
  | Indexed_auto of { mode : Optimizer.Planner.mode }
      (** the end-to-end ladder including the §7 crossover decision *)

type verdict =
  | Agree
  | Refused of string  (** transformation declined; not a discrepancy *)
  | Mismatch of { expected : Relalg.Relation.t; got : Relalg.Relation.t }
  | Failed of string  (** planning / verification / runtime error *)

type outcome = { candidate : candidate; verdict : verdict }

type result = {
  reference : (Relalg.Relation.t, string) Stdlib.result;
  outcomes : outcome list;  (** empty when the reference itself failed *)
}

(** NULL-aware comparison: multiset when the query fixes multiplicities
    (DISTINCT / GROUP BY / aggregates), set otherwise (§5.4 duplicate
    residue, see DESIGN.md); under ORDER BY the candidate's delivered
    order must respect the sort keys. *)
val results_agree :
  q:Sql.Ast.query ->
  reference:Relalg.Relation.t ->
  got:Relalg.Relation.t ->
  bool

val run_reference : Repro.case -> (Relalg.Relation.t, string) Stdlib.result

(** [check] additionally type-checks every lowered physical plan
    ({!Analysis.Plan_check} via [Core.run ~check]) in every cell; a
    violation becomes a [Failed] cell. *)
val run_case : ?candidates:candidate list -> ?check:bool -> Repro.case -> result

(** The outcomes that count as bugs (mismatches and failures). *)
val discrepancies : result -> outcome list

(** One line per disagreeing cell; [[]] means every cell agreed or
    refused. *)
val describe : result -> string list

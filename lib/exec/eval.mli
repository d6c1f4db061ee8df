(** Shared SQL evaluation semantics (three-valued comparisons, IN/ANY/ALL,
    aggregates).  Both executors delegate here, so they can only disagree on
    plan structure, never on scalar rules. *)

(** A query that cannot be evaluated on this data: a scalar subquery
    returning several rows, a multi-column value subquery, an outer-join
    predicate in a source query. *)
exception Runtime_error of string

(** SQL comparison: [Unknown] when either operand is NULL. *)
val cmp_values :
  Sql.Ast.cmp -> Relalg.Value.t -> Relalg.Value.t -> Relalg.Truth.t

(** [in_values x vs]: True on a match; Unknown when no match but some
    comparison was Unknown; else False. *)
val in_values : Relalg.Value.t -> Relalg.Value.t list -> Relalg.Truth.t

(** Existential ([Any]) / universal ([All]) closure of a comparison;
    [Any] over [] is False, [All] over [] is True. *)
val quant_values :
  Sql.Ast.cmp ->
  Sql.Ast.quantifier ->
  Relalg.Value.t ->
  Relalg.Value.t list ->
  Relalg.Truth.t

(** Apply an aggregate to a column of values.  NULLs are ignored;
    COUNT(∅) = 0; every other aggregate is NULL on an empty (or all-NULL)
    input — the paper's MAX({}) = NULL assumption.  The reference
    evaluator's ({!Nested_iter}) form; the physical operators accumulate
    with {!fresh_state}/{!update_state}/{!finish_state}.
    @raise Invalid_argument for AVG over non-numeric values. *)
val aggregate_values : Sql.Ast.agg -> Relalg.Value.t list -> Relalg.Value.t

(** Incremental aggregate accumulators, equivalent to {!aggregate_values}
    fold-style: COUNT(col) ignores NULLs (COUNT-star does not);
    MAX/MIN/SUM/AVG ignore NULLs and finish to NULL on empty/all-NULL
    input.  Every physical aggregate, row or batch, runs on these. *)
type agg_state =
  | S_count of { mutable n : int; star : bool }
  | S_max of { mutable v : Relalg.Value.t }
  | S_min of { mutable v : Relalg.Value.t }
  | S_sum of { mutable v : Relalg.Value.t }
  | S_avg of { mutable total : float; mutable n : int }

val fresh_state : Sql.Ast.agg -> agg_state
val update_state : agg_state -> Relalg.Value.t -> unit
val finish_state : agg_state -> Relalg.Value.t

(** Evaluate a scalar under an environment.  @raise Env.Unbound *)
val scalar : Env.t -> Sql.Ast.scalar -> Relalg.Value.t

(** Per-column relation statistics (Selinger-style): distinct counts, NULL
    counts, min/max — the inputs to the planner's selectivity estimates. *)

type column_stats = {
  distinct : int;
  nulls : int;
  min : Relalg.Value.t option;  (** over non-NULL values *)
  max : Relalg.Value.t option;
}

type t

val of_rows : Relalg.Schema.t -> Relalg.Row.t list -> t
val of_relation : Relalg.Relation.t -> t

(** Statistics given rather than gathered: [tuples] rows and one entry per
    column, in schema order (an estimate for a relation not stored). *)
val make : tuples:int -> column_stats list -> t
val tuples : t -> int
val column : t -> int -> column_stats

val default_eq_selectivity : float
val default_range_selectivity : float

(** Fraction of rows satisfying [col op literal]: 1/distinct for equality,
    min/max interpolation for ranges over numerics and dates (clamped to
    [0.05, 0.95]), defaults otherwise. *)
val literal_selectivity :
  column_stats -> Sql.Ast.cmp -> Relalg.Value.t -> float

(** Equi-join selectivity: 1 / max(distinct). *)
val join_selectivity : column_stats -> column_stats -> float

val pp_column : column_stats Fmt.t
val pp : t Fmt.t

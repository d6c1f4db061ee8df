(** Transformed programs: ordered temp-table definitions plus a final
    canonical query — the output of the transformation algorithms
    (NEST-JA2 materializes intermediate tables, so its result is a program,
    not a single query). *)

type temp = { name : string; def : Sql.Ast.query }

(** [notes]: one line per cost-based choice the transformation made (a
    keyed NEST-JA2 TEMP2); EXPLAIN prints them above the plans. *)
type t = { temps : temp list; main : Sql.Ast.query; notes : string list }

(** Output column name of a select item; agrees with
    [Sql.Analyzer.output_schema] so generated references resolve.
    @raise Invalid_argument on [SELECT *]. *)
val item_output_name : Sql.Ast.select_item -> string

val output_column_names : Sql.Ast.query -> string list

(** No nested predicates anywhere in the block. *)
val is_canonical : Sql.Ast.query -> bool

(** [is_canonical] for the main query and every temp definition. *)
val is_fully_canonical : t -> bool

(** Paper-style rendering: ["TEMP (C1, C2) := SELECT ...;"] per temp,
    then the main query. *)
val pp : t Fmt.t

val to_string : t -> string

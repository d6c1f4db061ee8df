(** Transformed programs: ordered temp-table definitions plus a final
    canonical query — the output of the transformation algorithms
    (NEST-JA2 materializes intermediate tables, so its result is a program,
    not a single query). *)

type temp = { name : string; def : Sql.Ast.query }

(** A candidate for building a keyed TEMP2 ({!Nest_ja2.transform}'s
    [probe_keys]): TEMP1 projects [outer_cols] of [outer_rel], and each of
    its keys would probe [inner_col] of the inner relation [inner_rel]. *)
type key_probe = {
  outer_rel : string;
  outer_cols : string list;
  inner_rel : string;
  inner_col : string;
}

(** [notes]: one line per cost-based choice the transformation made (a
    keyed NEST-JA2 TEMP2); EXPLAIN prints them above the plans.
    [probes]: the probe of each keyed TEMP2, in program order — the data
    Auto prices the program with ({!Estimate.transformed_bound}). *)
type t = {
  temps : temp list;
  main : Sql.Ast.query;
  notes : string list;
  probes : key_probe list;
}

(** A rewrite's refusal, raised by every transformation algorithm (NEST-G,
    NEST-N-J, NEST-JA, NEST-JA2, the §8 extensions) on a shape outside
    what it handles soundly; callers run the statement untransformed. *)
exception Refused of string

(** Raise {!Refused} with a formatted message. *)
val refuse : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** The column names a temp defined by the query registers under
    ({!Sql.Ast.item_output_name}). *)
val output_column_names : Sql.Ast.query -> string list

(** The FROM items that read temp [name], at any depth, one entry each:
    [Some t] for a FROM item of temp [t]'s definition, [None] for one of
    the main query. *)
val readers : t -> string -> string option list

(** No nested predicates anywhere in the block. *)
val is_canonical : Sql.Ast.query -> bool

(** [is_canonical] for the main query and every temp definition. *)
val is_fully_canonical : t -> bool

(** Paper-style rendering: ["TEMP (C1, C2) := SELECT ...;"] per temp,
    then the main query. *)
val pp : t Fmt.t

val to_string : t -> string

(** Self-contained discrepancy repros: tables inline (CSV dialect behind
    ["-- table"] / ["-- row"] comment lines) plus the query, in one .sql
    file.  The format is {!Workload.Repro_format}'s; the shrinker writes
    them; [nestsql fuzz --replay] and the regression suite read them
    back. *)

type case = Workload.Repro_format.case = {
  tables : (string * Relalg.Relation.t) list;  (** registration order *)
  sql : string;
}

exception Bad_repro of string

(** @raise Workload.Csv_writer.Unwritable on a string with a comma or
    newline, which the dialect cannot hold. *)
val to_string : ?description:string -> case -> string

(** @raise Bad_repro on malformed table/row lines or missing SQL. *)
val of_string : string -> case

val load : string -> case

(** A fresh database loaded with the case's tables (small pool by default
    so paged paths and external sorts spill even on shrunk inputs). *)
val build_db : ?buffer_pages:int -> ?page_bytes:int -> case -> Core.db

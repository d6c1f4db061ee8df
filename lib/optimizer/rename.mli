(** Capture-aware renaming of table aliases inside query blocks, used when
    NEST-N-J merges two blocks that bind the same alias. *)

(** Rename every binding of [q] that collides with [taken]. *)
val avoid_aliases : taken:string list -> Sql.Ast.query -> Sql.Ast.query

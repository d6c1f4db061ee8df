(* Scope / correlation graph over an analyzed query: which inner blocks
   reference which outer aliases, through which comparison operators, at
   which nesting depth.  Input must be analyzed ({!Sql.Analyzer}) so every
   column reference carries its binding alias. *)

type use = {
  column : string;  (** referenced column of the outer alias *)
  op : Sql.Ast.cmp option;
      (** comparison the reference appears under; [None] outside [Cmp] *)
}

type edge = {
  inner : int;  (** block doing the referencing *)
  outer : int;  (** block binding the alias *)
  alias : string;
  uses : use list;
}

type node = {
  id : int;  (** pre-order numbering; 0 is the outermost block *)
  depth : int;
  span : Sql.Ast.span;
  aliases : string list;  (** FROM aliases this block binds *)
  context : string;  (** e.g. ["top-level"], ["= subquery"], ["IN subquery"] *)
  block : Sql.Ast.query;
}

type t = { nodes : node list; edges : edge list }

val build : Sql.Ast.query -> t

val node : t -> int -> node
(** @raise Not_found on an unknown id. *)

val is_correlated_block : t -> int -> bool

val pp : t Fmt.t

val to_string : t -> string

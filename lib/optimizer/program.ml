(* Transformed programs: ordered temporary-table definitions plus a final
   canonical query.

   NEST-JA2 is not a pure query-to-query rewrite — it materializes
   intermediate tables (the paper's TEMP1/TEMP2/TEMP3).  A [Program.t] is
   the output of transformation: evaluate the temp definitions in order,
   registering each in the catalog, then evaluate the main query.  Temp
   definitions stay in the same SQL AST (with GROUP BY and the [Cmp_outer]
   predicate), which lets EXPLAIN print transformed queries exactly the way
   the paper prints them. *)

open Sql.Ast

type temp = { name : string; def : query }

type key_probe = {
  outer_rel : string;
  outer_cols : string list;
  inner_rel : string;
  inner_col : string;
}

type t = {
  temps : temp list;
  main : query;
  notes : string list;
  probes : key_probe list;
}

(* A rewrite's refusal: the shape lies outside the transformation
   algorithms (or outside what they handle soundly), and the statement
   runs untransformed. *)
exception Refused of string

let refuse fmt = Fmt.kstr (fun s -> raise (Refused s)) fmt

let output_column_names (q : query) = List.map item_output_name q.select

(* A query is canonical when no predicate nests a query block. *)
let is_canonical (q : query) =
  not (List.exists predicate_has_subquery q.where)

let is_fully_canonical (t : t) =
  is_canonical t.main && List.for_all (fun { def; _ } -> is_canonical def) t.temps

let pp ppf (t : t) =
  List.iter
    (fun { name; def } ->
      Fmt.pf ppf "%s (%a) :=@.  %a;@.@." name
        Fmt.(list ~sep:(any ", ") string)
        (output_column_names def)
        Sql.Pp.pp_query def)
    t.temps;
  Fmt.pf ppf "%a;" Sql.Pp.pp_query t.main

let to_string t = Fmt.str "%a" pp t

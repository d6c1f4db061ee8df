(* Per-column relation statistics, Selinger-style.

   The planner's cost decisions need cardinality estimates; these are the
   classic catalog statistics [SEL 79] keeps: per column, the number of
   distinct values, the NULL count, and the min/max (for range-predicate
   interpolation).  Computed eagerly when a relation is registered —
   relations are immutable once stored — in one hashed pass over its rows,
   no sort. *)

module Value = Relalg.Value
module Row = Relalg.Row
module Schema = Relalg.Schema
module Relation = Relalg.Relation

type column_stats = {
  distinct : int;
  nulls : int;
  min : Value.t option; (* over non-NULL values *)
  max : Value.t option;
}

type t = { tuples : int; columns : column_stats array }

module Value_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* One column's statistics, gathered in one pass: a hash set of the
   non-NULL values (equal under [Value.compare], as sorting would
   deduplicate them) and the running extremes, the first value seen of
   each. *)
type acc = {
  seen : unit Value_tbl.t;
  mutable nulls : int;
  mutable lo : Value.t option;
  mutable hi : Value.t option;
}

let add acc v =
  if Value.is_null v then acc.nulls <- acc.nulls + 1
  else begin
    Value_tbl.replace acc.seen v ();
    (match acc.lo with
    | Some lo when Value.compare v lo >= 0 -> ()
    | _ -> acc.lo <- Some v);
    match acc.hi with
    | Some hi when Value.compare v hi <= 0 -> ()
    | _ -> acc.hi <- Some v
  end

let of_rows (schema : Schema.t) (rows : Row.t list) : t =
  let accs =
    Array.init (Schema.arity schema) (fun _ ->
        { seen = Value_tbl.create 64; nulls = 0; lo = None; hi = None })
  in
  let tuples =
    List.fold_left
      (fun n row ->
        Array.iteri (fun i acc -> add acc (Row.get row i)) accs;
        n + 1)
      0 rows
  in
  let column acc =
    {
      distinct = Value_tbl.length acc.seen;
      nulls = acc.nulls;
      min = acc.lo;
      max = acc.hi;
    }
  in
  { tuples; columns = Array.map column accs }

let of_relation rel = of_rows (Relation.schema rel) (Relation.rows rel)

let tuples t = t.tuples

let column t i = t.columns.(i)

(* ------------------------------------------------------------------ *)
(* Selectivity estimation                                              *)
(* ------------------------------------------------------------------ *)

let default_eq_selectivity = 0.1
let default_range_selectivity = 1. /. 3.

(* Fraction of rows expected to satisfy [col op literal].  Equality uses
   1/distinct; ranges interpolate between min and max when the column is
   numeric or a date; everything else falls back to the classic defaults. *)
let literal_selectivity (c : column_stats) (op : Sql.Ast.cmp)
    (v : Value.t) : float =
  let as_float value =
    match value with
    | Value.Int i -> Some (float_of_int i)
    | Value.Float f -> Some f
    | Value.Date d ->
        Some (float_of_int ((d.year * 372) + (d.month * 31) + d.day))
    | Value.Null | Value.Str _ -> None
  in
  match op with
  | Sql.Ast.Eq | Sql.Ast.Eq_null ->
      if c.distinct > 0 then 1. /. float_of_int c.distinct else 0.
  | Sql.Ast.Ne ->
      if c.distinct > 0 then 1. -. (1. /. float_of_int c.distinct) else 1.
  | Sql.Ast.Lt | Sql.Ast.Le | Sql.Ast.Gt | Sql.Ast.Ge -> (
      match c.min, c.max with
      | Some lo, Some hi -> (
          match as_float lo, as_float hi, as_float v with
          | Some lo, Some hi, Some x when hi > lo ->
              let frac = (x -. lo) /. (hi -. lo) in
              let frac = Float.min 1. (Float.max 0. frac) in
              let f =
                match op with
                | Sql.Ast.Lt | Sql.Ast.Le -> frac
                | Sql.Ast.Gt | Sql.Ast.Ge -> 1. -. frac
                | Sql.Ast.Eq | Sql.Ast.Ne | Sql.Ast.Eq_null -> assert false
              in
              (* keep estimates away from the degenerate 0/1 corners *)
              Float.min 0.95 (Float.max 0.05 f)
          | _ -> default_range_selectivity)
      | _ -> default_range_selectivity)

(* Equi-join selectivity between two columns: 1 / max(distinct). *)
let join_selectivity (a : column_stats) (b : column_stats) : float =
  let d = max a.distinct b.distinct in
  if d > 0 then 1. /. float_of_int d else default_eq_selectivity

let pp_column ppf c =
  Fmt.pf ppf "{distinct=%d nulls=%d min=%a max=%a}" c.distinct c.nulls
    Fmt.(option ~none:(any "-") Value.pp)
    c.min
    Fmt.(option ~none:(any "-") Value.pp)
    c.max

let pp ppf t =
  Fmt.pf ppf "%d tuples: %a" t.tuples Fmt.(array ~sep:(any " ") pp_column)
    t.columns

(* Atomic values stored in relations.

   NULL is a first-class value: scalar comparisons against it yield
   [Truth.Unknown], while [compare] (used for sorting and grouping) gives a
   total order in which NULL sorts first and equals itself.  The distinction
   matters throughout the paper: the outer join pads with NULLs, and grouping
   must treat those padded rows as ordinary rows, while the transformed
   query's WHERE clause must use SQL comparison semantics. *)

type date = { year : int; month : int; day : int }

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Date of date

type ty = Tint | Tfloat | Tstr | Tdate

let type_name = function
  | Tint -> "INT"
  | Tfloat -> "FLOAT"
  | Tstr -> "STRING"
  | Tdate -> "DATE"

let pp_ty ppf ty = Fmt.string ppf (type_name ty)

let equal_ty (a : ty) (b : ty) = a = b

(* [compare] orders Int and Float numerically; other types compare only
   with themselves. *)
let comparable_ty a b =
  let numeric = function Tint | Tfloat -> true | Tstr | Tdate -> false in
  equal_ty a b || (numeric a && numeric b)

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstr
  | Date _ -> Some Tdate

let is_null = function Null -> true | Int _ | Float _ | Str _ | Date _ -> false

let date_key { year; month; day } = (year * 10000) + (month * 100) + day

let valid_date d =
  let days_in_month =
    match d.month with
    | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
    | 4 | 6 | 9 | 11 -> 30
    | 2 ->
        let leap =
          (d.year mod 4 = 0 && d.year mod 100 <> 0) || d.year mod 400 = 0
        in
        if leap then 29 else 28
    | _ -> 0
  in
  d.month >= 1 && d.month <= 12 && d.day >= 1 && d.day <= days_in_month

let date_of_parts ~year ~month ~day =
  let d = { year; month; day } in
  if valid_date d then Some d else None

(* Accepts the paper's American "M-D-YY" / "M/D/YY" shorthand (two-digit
   years are 19xx) as well as ISO "YYYY-MM-DD". *)
let date_of_string s =
  let split c = String.split_on_char c s in
  let parts =
    match split '-' with
    | [ _ ] -> split '/'
    | parts -> parts
  in
  match List.map int_of_string_opt parts with
  | [ Some a; Some b; Some c ] ->
      if String.length (List.nth parts 0) = 4 then
        date_of_parts ~year:a ~month:b ~day:c
      else
        let year = if c < 100 then 1900 + c else c in
        date_of_parts ~year ~month:a ~day:b
  | _ -> None

let pp_date ppf d = Fmt.pf ppf "%04d-%02d-%02d" d.year d.month d.day

(* Total order used for sorting, grouping and duplicate elimination.
   NULL < everything; across types the order is arbitrary but fixed. *)
let compare a b =
  let rank = function
    | Null -> 0
    | Int _ -> 1
    | Float _ -> 1 (* ints and floats compare numerically *)
    | Str _ -> 2
    | Date _ -> 3
  in
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Date x, Date y -> Int.compare (date_key x) (date_key y)
  | (Null | Int _ | Float _ | Str _ | Date _), _ ->
      Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Hash consistent with [compare]-equality, for hash-based operators: since
   [Int 1] and [Float 1.0] compare equal, both hash through their float
   value; NULL hashes to a constant (it equals itself under [compare]). *)
let hash = function
  | Null -> 0
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | Str s -> Hashtbl.hash s
  | Date d -> Hashtbl.hash (date_key d)

(* Arithmetic used by SUM/AVG.  NULL is absorbing (callers filter NULLs out
   before aggregating, so this only matters for defensive uses). *)
let add a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (x + y)
  | Float x, Float y -> Float (x +. y)
  | Int x, Float y -> Float (float_of_int x +. y)
  | Float x, Int y -> Float (x +. float_of_int y)
  | (Str _ | Date _), _ | _, (Str _ | Date _) ->
      invalid_arg "Value.add: non-numeric operand"

let to_float = function
  | Int x -> Some (float_of_int x)
  | Float x -> Some x
  | Null | Str _ | Date _ -> None

let pp ppf = function
  | Null -> Fmt.string ppf "NULL"
  | Int x -> Fmt.int ppf x
  | Float x -> Fmt.pf ppf "%g" x
  | Str s -> Fmt.pf ppf "'%s'" s
  | Date d -> pp_date ppf d

let to_string v = Fmt.str "%a" pp v

(* Coerce a string literal to [ty] when it plausibly denotes a value of that
   type; the analyzer uses this so the paper's quoted date literals
   ('1-1-80') compare correctly against DATE columns. *)
let coerce_string_literal s ty =
  match ty with
  | Tdate -> ( match date_of_string s with Some d -> Some (Date d) | None -> None)
  | Tstr -> Some (Str s)
  | Tint -> ( match int_of_string_opt s with Some i -> Some (Int i) | None -> None)
  | Tfloat -> (
      match float_of_string_opt s with Some f -> Some (Float f) | None -> None)

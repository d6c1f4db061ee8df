(** Atomic values (with SQL NULL) and their total order for
    sorting/grouping.  SQL's three-valued comparison over that order is
    [Exec.Eval.cmp_values]. *)

type date = { year : int; month : int; day : int }

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Date of date

(** Column types. *)
type ty = Tint | Tfloat | Tstr | Tdate

val type_name : ty -> string
val pp_ty : ty Fmt.t
val equal_ty : ty -> ty -> bool

(** Whether values of the two types compare: equal types, or Int against
    Float (numerically). *)
val comparable_ty : ty -> ty -> bool

(** [type_of v] is [None] for NULL. *)
val type_of : t -> ty option

val is_null : t -> bool

(** Parses "M-D-YY", "M/D/YY" (19xx assumed) and ISO "YYYY-MM-DD". *)
val date_of_string : string -> date option

val pp_date : date Fmt.t

(** [year * 10000 + month * 100 + day]: {!compare} orders dates by this
    key. *)
val date_key : date -> int

(** Total order: NULL first, numerics compare numerically across Int/Float. *)
val compare : t -> t -> int

(** Equality under the total order (NULL = NULL). *)
val equal : t -> t -> bool

(** Hash consistent with [compare]-equality: [Int 1] and [Float 1.0] hash
    alike, NULL hashes to a constant.  For hash-based operators. *)
val hash : t -> int

(** Numeric addition for SUM/AVG; NULL is absorbing.
    @raise Invalid_argument on non-numeric operands. *)
val add : t -> t -> t

val to_float : t -> float option
val pp : t Fmt.t
val to_string : t -> string

(** Reinterpret a string literal at type [ty] (dates, numerics). *)
val coerce_string_literal : string -> ty -> t option

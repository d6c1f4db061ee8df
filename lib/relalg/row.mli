(** Tuples: immutable arrays of values. *)

type t = Value.t array

val of_list : Value.t list -> t
val to_list : t -> Value.t list
val arity : t -> int
val get : t -> int -> Value.t
val append : t -> t -> t

(** [project t idxs] keeps positions [idxs] in order. *)
val project : t -> int list -> t

(** [project] with a precomputed position array — the executor's hot path
    (no per-row list traversal). *)
val project_positions : t -> int array -> t

(** A row of [n] NULLs (outer-join padding). *)
val nulls : int -> t

(** Lexicographic total order on the given key positions. *)
val compare_on : int list -> t -> t -> int

(** Full-row lexicographic total order. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Hash consistent with {!equal} (which is [Value.compare]-based). *)
val hash : t -> int

(** Hash table keyed by rows under semantic equality: Int/Float keys unify
    numerically and NULL equals itself, matching what the sort-based
    operators do via [Value.compare].  All hash operators must use this
    rather than the structural [Stdlib.Hashtbl]. *)
module Tbl : Hashtbl.S with type key = t

val pp : t Fmt.t

(** Relations stored as paged heap files. *)

type t

val create : Pager.t -> Relalg.Schema.t -> t

(** Load a whole in-memory relation, flushing the final partial page. *)
val of_relation : Pager.t -> Relalg.Relation.t -> t

val schema : t -> Relalg.Schema.t
val tuple_count : t -> int

(** The backing pager file (for index construction). *)
val file_id : t -> Pager.file_id

(** Pages used, counting a partial unflushed tail page. *)
val page_count : t -> int

(** @raise Invalid_argument on arity mismatch. *)
val append : t -> Relalg.Row.t -> unit

(** Write out any buffered partial page. *)
val flush : t -> unit

(** Sequential scan; flushes first. Page reads go through the buffer pool. *)
val scan : t -> unit -> Relalg.Row.t option

(** Column scan for the vectorized engine; flushes first.  Each call
    yields the next {!Relalg.Column.max_rows} rows (fewer at the end) as
    their row count, one vector per schema column, and the stored rows
    themselves (the very {!Relalg.Row.t}s {!scan} returns, in order, one
    per position of the vectors).  Vectors and rows come from the heap's
    column image — decoded the first time any scan reaches those rows,
    shared afterwards — and neither array may be written to.  Each page
    is read through the buffer pool at the call that first needs one of
    its rows, so page accounting and LRU order are the same whether a
    chunk is decoded or found in the image. *)
val scan_chunks :
  t -> unit -> (int * Relalg.Column.t array * Relalg.Row.t array) option

val to_relation : t -> Relalg.Relation.t
val delete : t -> unit

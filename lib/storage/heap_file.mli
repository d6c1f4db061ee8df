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

(** Pages of one {!scan_chunks} chunk that the scan has not requested
    yet: the pages whose first row lies in the chunk.  Shared by every
    batch made from the chunk, so each page is requested once. *)
type pending

(** One chunk of a {!scan_chunks} scan. *)
type chunk = {
  len : int;  (** rows, {!Relalg.Column.max_rows} but at the end *)
  cols : Relalg.Column.t array;  (** one vector per schema column *)
  rows : Relalg.Row.t array;
      (** the stored rows themselves (the very {!Relalg.Row.t}s {!scan}
          returns), one per position of the vectors *)
  pages : pending;  (** its pages, none requested when it is handed out *)
}

(** Nothing pending. *)
val no_pages : pending

(** [request_through p i] requests through the pool, in file order, each
    pending page that starts at or before row [i] of the chunk: what a
    row-by-row scan has requested by the time it returns row [i]. *)
val request_through : pending -> int -> unit

(** Request every pending page, in file order. *)
val request_all : pending -> unit

(** [wrap_requests p around] runs each later request of [p]'s pages, in
    every batch sharing [p], as [around request] (EXPLAIN ANALYZE charges
    it to the operators that handed the pages out). *)
val wrap_requests : pending -> ((unit -> unit) -> unit) -> unit

(** Column scan; flushes first.  Each call yields the next
    {!Relalg.Column.max_rows} rows (fewer at the end).  Vectors and rows
    come from the heap's column image — decoded the first time any scan
    reaches those rows, shared afterwards — and neither array may be
    written to.  A chunk's pages are handed out pending: its consumer
    requests each at the row that first needs it ({!request_through}),
    or all when it takes the chunk whole; the next call requests what the
    previous chunk left pending first.  So the pool sees the requests of
    a row-by-row {!scan}, in its order relative to the consumer's own
    page traffic, whether a chunk is decoded or found in the image. *)
val scan_chunks : t -> unit -> chunk option

val to_relation : t -> Relalg.Relation.t
val delete : t -> unit

(** Column-major row chunks for the vectorized engine.

    A batch holds up to {!max_rows} rows as {!Relalg.Column} vectors:
    [Tint] / [Tfloat] / [Tdate] columns whose values are all of the
    declared type (or NULL) are unboxed [int array] / [float array] /
    day-key [int array] plus a NULL flag per row, everything else falls
    back to a boxed {!Relalg.Value.t} array.  Rows are addressed by
    {e physical} index [0 .. len-1]; a selection vector — a strictly
    increasing array of live physical indices — lets filters and duplicate
    elimination narrow a batch without copying any column data.  The
    representation follows the MonetDB/X100 design the db2-ss24 notes
    describe (Chapters 7–8): tight per-column loops, branch-free selection,
    late materialization of rows.

    Batches are immutable.  A scan hands out its heap file's column image
    without copying, so the same vectors reach every scan of that heap:
    an operator builds new columns and new selection vectors, and never
    writes into an input's.

    A batch may also carry the stored rows its columns were decoded from
    ([rows]).  {!Vec.scan} sets them to the heap's own {!Relalg.Row.t}s
    and {!of_rows} to the rows it transposes; {!with_sel} and
    {!with_schema} keep them, since neither changes a row's values.  Every
    operator that builds or reorders columns — {!project}, a join's or an
    aggregate's gather — makes a batch without them.  Where they are set,
    {!row} and {!to_rows} return the stored rows themselves instead of
    boxing the columns: rows are immutable, so sharing them is safe, and a
    vectorized plan hands a heap the very rows the tuple engine would. *)

type col = Relalg.Column.t =
  | Ints of { data : int array; nulls : bool array }
  | Floats of { data : float array; nulls : bool array }
  | Dates of { data : int array; nulls : bool array }
      (** day keys ({!Relalg.Value.date_key}) *)
  | Values of Relalg.Value.t array
      (** boxed fallback: strings and mixed-type columns *)

type t = {
  schema : Relalg.Schema.t;
  len : int;  (** physical rows in every column *)
  cols : col array;
  sel : int array option;
      (** live physical row indices, strictly increasing; [None] = all *)
  rows : Relalg.Row.t array option;
      (** the stored rows, one per physical index, equal to the columns'
          values; [None] once the columns no longer match them *)
}

(** Batch capacity (rows): {!Relalg.Column.max_rows}. *)
val max_rows : int

(** Number of live (selected) rows. *)
val live : t -> int

(** Value at a {e physical} row index (caller is responsible for only
    touching live rows). *)
val value : t -> col:int -> row:int -> Relalg.Value.t

(** One physical row: the stored row when [rows] is set, else the row
    gathered from the columns into a fresh {!Relalg.Row.t}. *)
val row : t -> int -> Relalg.Row.t

(** Live physical indices as a fresh dense array (safe to mutate). *)
val live_indices : t -> int array

(** Iterate the live rows in physical order. *)
val iter_live : t -> (int -> unit) -> unit

(** Transpose rows into columns ({!Relalg.Column.of_rows}: unboxed where
    the schema's column type holds exactly, exact round-trip always); the
    rows are kept as the batch's stored rows. *)
val of_rows : Relalg.Schema.t -> Relalg.Row.t array -> t

(** The live rows, in order: stored rows when set, else gathered. *)
val to_rows : t -> Relalg.Row.t list

(** Share columns: keep the columns at [positions] (in order) under a new
    schema.  O(arity) — no row data is touched.  Drops the stored rows. *)
val project : t -> schema:Relalg.Schema.t -> positions:int array -> t

(** Replace the selection vector (indices must be increasing, live); keeps
    the stored rows. *)
val with_sel : t -> int array -> t

(** Retag the schema (provenance rename); columns and stored rows are
    shared. *)
val with_schema : t -> Relalg.Schema.t -> t

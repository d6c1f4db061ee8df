(** Batch-at-a-time (vectorized) physical operators.

    The vectorized engine mirrors the Volcano operators in {!Iterator} but
    pulls {!Batch.t} chunks instead of single rows: per-call overhead is
    amortized over ~{!Batch.max_rows} rows, predicates run as tight loops
    over unboxed column arrays with selection-vector compaction, and
    filter/project are zero-copy.  Nested-loop joins run here too: under
    each left row the stored inner is rescanned chunk by chunk through the
    same predicate kernels.  Adapters convert in both directions so
    batch-only and tuple-only operators compose inside one plan; operators
    without a vectorized implementation (sorts, merge and index
    nested-loop joins, sorted grouping, the dependent join) run through the
    adapters.  The hash operators here are the only ones: the tuple engine
    runs them between {!of_tuple} and {!to_tuple}.

    Semantics are identical to the tuple operators by construction: scalar
    comparison, NULL and aggregate rules all delegate to {!Eval}, hash keys
    group by the same {!Relalg.Value.compare} equality classes (Int/Float
    unify numerically, NULL equals itself only where null-safe), and the
    differential oracle cross-checks the two engines. *)

type t = { schema : Relalg.Schema.t; next_batch : unit -> Batch.t option }

val schema : t -> Relalg.Schema.t

(** Adapt a tuple iterator: each [next_batch] pulls up to {!Batch.max_rows}
    rows and transposes them. *)
val of_tuple : Iterator.t -> t

(** Adapt to a tuple iterator: rows are gathered lazily from each batch. *)
val to_tuple : t -> Iterator.t

(** Drain to rows (selected rows only, in batch order). *)
val to_rows : t -> Relalg.Row.t list

(** Page-to-batch sequential scan over the heap's column image
    ({!Storage.Heap_file.scan_chunks}), up to {!Batch.max_rows} rows per
    batch; each batch carries the heap's stored rows.  Page reads go
    through the buffer pool as a batch-filling {!Iterator.scan} would. *)
val scan : Storage.Heap_file.t -> t

(** Retag the output schema (alias rename); batches are re-tagged only. *)
val with_schema : t -> Relalg.Schema.t -> t

(** A compiled selection filter: given a batch, a dense array of live
    physical indices and its length, compacts the array in place to the
    rows that pass and returns the new length. *)
type sel_filter = Batch.t -> int array -> int -> int

(** A comparison operand, as the caller resolved it: a column position in
    the batch, or a value read each time a batch is filtered (a literal,
    a parameter a re-opened plan reads from its bindings, or a column of
    the left row a nested-loop join has bound). *)
type operand = Column of int | Value of (unit -> Relalg.Value.t)

(** Compile a conjunction of comparisons, their operands resolved, to a
    selection filter.  Conjuncts are applied in order, each over the
    survivors of the previous one (mixed-mode evaluation: the first runs
    dense, later ones over the narrowed selection).  Comparisons follow
    SQL 3VL via {!Eval.cmp_values}: only [True] rows survive.  Int/float
    column-vs-value and column-vs-column conjuncts run as branch-poor
    unboxed loops; everything else falls back to a per-row boxed loop. *)
val compile_conjunction :
  (operand * Sql.Ast.cmp * operand) list -> sel_filter

(** Narrow each batch's selection vector; batches with no survivors are
    skipped.  Zero-copy: column data is shared with the input batch. *)
val filter : pred:sel_filter -> t -> t

(** Keep the columns at [positions] under [schema].  Zero-copy. *)
val project : schema:Relalg.Schema.t -> positions:int array -> t -> t

(** Full-row duplicate elimination via hashing, first-occurrence order,
    under [Value.compare] equality (Int 1 = Float 1.0, NULL = NULL: the
    rows sort-based DISTINCT keeps).  Emits the input batches narrowed to
    first occurrences; single int columns dedup through an unboxed
    table. *)
val hash_distinct : t -> t

(** In-memory hash join (build right, probe left) over batch inputs; the
    rows of {!Iterator.merge_join} on the same keys: NULL keys in strict
    columns never match, [null_safe] columns let NULL match NULL,
    [outer_join] pads a left row with no residual-qualifying match,
    [residual] filters matches.  One- and two-column int-class keys build
    and probe unboxed tables.

    [project] is late materialization: positions into the concatenated
    left@right schema that the join should emit (a fused downstream
    projection).  Dropped columns are never gathered. *)
val hash_join :
  ?outer_join:bool ->
  ?null_safe:bool list ->
  ?residual:(Relalg.Row.t -> Relalg.Row.t -> Relalg.Truth.t) ->
  ?project:int list ->
  left_key:int list ->
  right_key:int list ->
  t ->
  t ->
  t

(** Nested loops over a stored inner; same contract as
    {!Iterator.nested_loop_join}.  Each live left row is bound in [frame]
    (read by [pred]'s left operands), then [right] is rescanned through
    {!Storage.Heap_file.scan_chunks} — the pages the tuple operator's
    rescan requests, in the same order — and [pred] narrows each chunk to
    the row's matches.  [outer_join] pads an unmatched left row.  Output
    under [schema] (left@right) is gathered column-wise from the left batch
    and the inner chunks, at most {!Batch.max_rows} rows per batch, so it
    allocates per output row, not per inner row scanned. *)
val nested_loop_join :
  ?outer_join:bool ->
  schema:Relalg.Schema.t ->
  frame:Relalg.Row.t ref ->
  pred:sel_filter ->
  t ->
  Storage.Heap_file.t ->
  t

(** Hash aggregation over unsorted batches; the rows of
    {!Iterator.group_agg_sorted} over the sorted input, in group
    first-occurrence order (one global row for an empty [group_key], even
    on empty input).  Accumulators are
    {!Eval.agg_state}s updated straight from column arrays where unboxed. *)
val hash_group_agg :
  group_key:int list ->
  aggs:Iterator.agg_spec list ->
  schema:Relalg.Schema.t ->
  t ->
  t

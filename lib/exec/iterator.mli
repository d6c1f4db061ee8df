(** Volcano-style row operators over paged storage.

    Every operator is a pull iterator carrying its output schema; operators
    touching stored relations count their page traffic through the pager,
    which is what lets measured I/O be compared against the paper's §4/§7
    cost formulas (and attributed per operator by {!Explain}).  These are
    the operators the executor runs a row at a time: sorts (sort-based
    DISTINCT), sort-merge and index nested-loop joins with the §5.2 left
    outer join, sorted GROUP BY and the global aggregate, and the heap
    scans and filters an index scan falls back to.  Scans, filters,
    projections, nested-loop joins and the hash operators run
    batch-at-a-time, in {!Vec}; {!Vec.of_tuple} and {!Vec.to_tuple} adapt
    between the two. *)

type t = { schema : Relalg.Schema.t; next : unit -> Relalg.Row.t option }

val schema : t -> Relalg.Schema.t
val to_rows : t -> Relalg.Row.t list
val to_relation : t -> Relalg.Relation.t
val of_rows : Relalg.Schema.t -> Relalg.Row.t list -> t
val of_relation : Relalg.Relation.t -> t

(** Sequential scan of a heap file (pages via the buffer pool). *)
val scan : Storage.Heap_file.t -> t

(** Keep rows whose predicate is [True] (SQL WHERE semantics). *)
val filter : pred:(Relalg.Row.t -> Relalg.Truth.t) -> t -> t

(** Drain into a fresh heap file (writes counted). *)
val materialize : Storage.Pager.t -> t -> Storage.Heap_file.t

(** External (B-1)-way merge sort on the given key positions: the sorted
    run, a fresh heap ({!scan} reads it; the caller deletes it).
    [~dedup:Drop_duplicates] over every column is sort-based DISTINCT. *)
val sort_run :
  Storage.Pager.t ->
  ?dedup:Storage.External_sort.dedup ->
  key:int list ->
  t ->
  Storage.Heap_file.t

(** Index nested loops: [probe] fetches the right rows matching one left
    row (its re-opened index scan), all of them before the first is
    returned.  [outer_join]/[residual] as in {!merge_join}: an unmatched
    left row is padded with NULLs under [outer_join]. *)
val index_nested_loop_join :
  ?outer_join:bool ->
  ?residual:(Relalg.Row.t -> Relalg.Row.t -> Relalg.Truth.t) ->
  probe:(Relalg.Row.t -> Relalg.Row.t list) ->
  right_schema:Relalg.Schema.t ->
  t ->
  t

(** Sort-merge join on equality keys; inputs must be sorted on their keys.
    Handles many-to-many groups; NULL keys in strict columns never join
    (left rows with NULL keys are still padded under [outer_join]);
    [null_safe] flags — aligned with [left_key]/[right_key] — mark columns
    joined with the null-safe [<=>], on which NULL matches NULL;
    [residual] filters matches, and under [outer_join] a left row with no
    residual-qualifying match is padded. *)
val merge_join :
  ?outer_join:bool ->
  ?null_safe:bool list ->
  ?residual:(Relalg.Row.t -> Relalg.Row.t -> Relalg.Truth.t) ->
  left_key:int list ->
  right_key:int list ->
  t ->
  t ->
  t

type agg_spec = {
  fn : Sql.Ast.agg;
  arg : int option;  (** input column position; [None] for COUNT-star *)
}

(** The global aggregate: drains its input at the first pull and emits
    exactly one row, one value per spec, even on empty input (COUNT 0,
    MAX NULL).  Nested iteration re-opens one per outer row. *)
val global_agg : aggs:agg_spec list -> schema:Relalg.Schema.t -> t -> t

(** Streaming aggregation over input sorted by [group_key]; one output row
    per group (key values, then one value per spec), accumulated with
    {!Eval.fresh_state}/{!Eval.update_state}/{!Eval.finish_state}.  An
    empty [group_key] is {!global_agg}. *)
val group_agg_sorted :
  group_key:int list -> aggs:agg_spec list -> schema:Relalg.Schema.t -> t -> t

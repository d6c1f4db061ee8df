(** Volcano-style physical operators over paged storage.

    Every operator is a pull iterator carrying its output schema; operators
    touching stored relations count their page traffic through the pager,
    which is what lets measured I/O be compared against the paper's §4/§7
    cost formulas (and attributed per operator by {!Explain}).  The
    operator set mirrors what the paper's plans need: scans, restrict /
    project, the §5.2 left outer join, sort-based DISTINCT and GROUP BY —
    plus beyond-the-paper hash variants used by the [Hybrid] planner
    mode. *)

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

(** Keep the columns at the given positions, in order. *)
val project : idxs:int list -> t -> t

(** Drain into a fresh heap file (writes counted). *)
val materialize : Storage.Pager.t -> t -> Storage.Heap_file.t

(** External (B-1)-way merge sort on the given key positions. *)
val sort :
  Storage.Pager.t ->
  ?dedup:Storage.External_sort.dedup ->
  key:int list ->
  t ->
  t

(** Full-row duplicate elimination (sort-based). *)
val distinct : Storage.Pager.t -> t -> t

(** Beyond the paper: duplicate elimination via an in-memory hash table —
    one pass, no sort, no page I/O.  Emits rows in first-occurrence order. *)
val hash_distinct : t -> t

(** Tuple nested loops: the stored right side is re-scanned once per left
    row (cheap iff it fits in the pool).  [outer_join] pads unmatched left
    rows with NULLs — the operation §5.2 of the paper requires. *)
val nested_loop_join :
  ?outer_join:bool ->
  theta:(Relalg.Row.t -> Relalg.Row.t -> Relalg.Truth.t) ->
  t ->
  Storage.Heap_file.t ->
  t

(** Index nested loops: [probe] fetches the right rows matching one left
    row (a B-tree lookup through the pool), all of them before the first
    is returned.  [outer_join]/[residual] as in {!merge_join}. *)
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

(* Beyond the paper: in-memory hash join (build right, probe left); the
   modern comparator for the bench ablation.  NULL keys in strict columns
   never match; [null_safe] columns ([<=>]) let NULL match NULL. *)
val hash_join :
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

(** Streaming aggregation over input sorted by [group_key]; one output row
    per group (key values, then one value per spec).  With an empty
    [group_key], exactly one row even on empty input (global aggregate). *)
val group_agg_sorted :
  group_key:int list -> aggs:agg_spec list -> schema:Relalg.Schema.t -> t -> t

(** Beyond the paper: hash aggregation over unsorted input — one pass,
    incremental per-group accumulators, no external sort.  Output order is
    group first-occurrence order; otherwise the same contract as
    {!group_agg_sorted}, including the single global-aggregate row for an
    empty [group_key]. *)
val hash_group_agg :
  group_key:int list -> aggs:agg_spec list -> schema:Relalg.Schema.t -> t -> t

(** Named relations backed by heap files, with order metadata and stats. *)

type t

exception Unknown_table of string

val create : Pager.t -> t
val pager : t -> Pager.t
val mem : t -> string -> bool

(** Stores an in-memory relation as a heap file, retagging its provenance
    to [name], with statistics gathered from its rows.  [sorted_on]
    records column positions the stored order follows (interesting orders
    for merge joins).
    @raise Invalid_argument on duplicate names. *)
val register_relation :
  ?sorted_on:int list -> t -> string -> Relalg.Relation.t -> unit

(** All of the following raise {!Unknown_table} for missing names. *)

val heap : t -> string -> Heap_file.t
val schema : t -> string -> Relalg.Schema.t
val relation : t -> string -> Relalg.Relation.t
val sorted_on : t -> string -> int list option

(** Per-column statistics, collected at registration. *)
val stats : t -> string -> Stats.t

(** Position and statistics of column [column] of relation [name], resolved
    by name in its stored schema: the one statistics lookup behind every
    cost formula and nullability guard.  [None] for an unknown relation or
    an absent or ambiguous column (never raises). *)
val column_stats : t -> string -> string -> (int * Stats.column_stats) option

(** May column [col] of [rel] hold NULL?  [false] only when its statistics
    count no NULL (a registered relation never changes, so that is a
    proof); an unknown relation or column is nullable.  The one
    nullability rule behind the rewrites' soundness guards, the
    equivalence search's domain and the plan checker. *)
val column_nullable : t -> rel:string -> string -> bool

(** Bulk-load a B-tree on [column] (idempotent); build page traffic is
    charged to the pager counters.
    @raise Schema.Not_found_column *)
val create_index : t -> string -> column:string -> unit

(** The B-tree on column position [key_col], if one was created. *)
val index_on : t -> string -> key_col:int -> Btree.t option

(** Names of the columns of [name] that carry an index. *)
val indexed_columns : t -> string -> string list

val pages : t -> string -> int
val tuples : t -> string -> int

(** The planner's access-path rule: a range probe of [index] selecting
    [sel] of [name]'s rows is worth taking when {!Btree.range_cost} is
    below the relation's pages. *)
val probe_beats_scan : t -> string -> Btree.t -> sel:float -> bool

(** No-op for unknown names. *)
val drop : t -> string -> unit

(** Delete every pager file created since [mark] that is neither a
    registered relation nor one of their B-trees: the scratch files a
    statement's operators left behind. *)
val release_since : t -> Pager.mark -> unit

val table_names : t -> string list

(** Analyzer-compatible schema lookup. *)
val lookup : t -> string -> Relalg.Schema.t option

(** Fresh "TEMP#n" names for transformation-generated tables. *)
val fresh_temp_name : t -> string

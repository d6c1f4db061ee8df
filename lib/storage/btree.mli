(** Paged B-trees bulk-loaded from heap files.

    Dense leaf entries [key; page; slot] in key order, fixed-fanout
    interior pages, all in one pager file (leaves consecutive, root
    last).  Construction streams the heap through {!External_sort} and —
    unlike the ISAM index it replaces — charges every page it touches to
    the pager counters; the bill is also captured per-tree in
    {!build_io}.  Probes descend root-to-leaf (O(height) page reads) and
    fetch data pages through the buffer pool, so indexed access paths
    have honest measured cost.

    Probes search a per-page image rather than the stored rows: each
    page is decoded once, the first time a probe reaches it, from its
    contents ({!Pager.contents}, which requests nothing) into flat arrays
    — INT and DATE keys unboxed, child page numbers, (data page, slot)
    pairs.  The image only saves CPU: a probe requests each page it
    searches through the pool as a walk over the rows would, in the same
    order, so page I/O and LRU order do not depend on it. *)

type t

(** Bulk-load an index over the non-NULL values of column position
    [key_col].  Page traffic (heap scan, sort runs, tree pages) is
    charged to the pager's counters and recorded in {!build_io}. *)
val build : Pager.t -> Heap_file.t -> key_col:int -> t

(** [(value, inclusive)] endpoint of a range probe. *)
type bound = Relalg.Value.t * bool

(** Data rows with keys in the given range, ascending; omitted bounds are
    unbounded, NULL bounds match nothing.  Opening requests the descent
    to the start leaf, then the start leaf again as the cursor's first
    page; each pull requests the leaves it enters and its row's data
    page. *)
val range :
  t -> ?lo:bound -> ?hi:bound -> unit -> unit -> Relalg.Row.t option

(** [lookup t v] returns the rows of [range t ~lo:(v, true) ~hi:(v, true)
    ()] with the same requests in the same order, but fetches the matches
    together: the descent and the start leaf's two requests when called,
    then at the first pull every match's data page, the leaves entered on
    the way and the one holding the entry past the last match.  Later
    pulls request nothing.  A NULL [v] matches nothing. *)
val lookup : t -> Relalg.Value.t -> unit -> Relalg.Row.t option

(** Estimated page reads of a range probe selecting [sel] of the keys,
    [matches] rows: one descent, the qualifying slice of the leaf level,
    and a data-page fetch per match. *)
val range_cost : t -> sel:float -> matches:float -> float

(** Total pages (leaf + interior). *)
val pages : t -> int

val leaf_page_count : t -> int
val entry_count : t -> int

(** Levels including the leaf level; the page reads per descent. *)
val height : t -> int

val key_col : t -> int

(** The pager file holding the tree's pages. *)
val file_id : t -> Pager.file_id

(** Page traffic charged while building this tree. *)
val build_io : t -> Pager.stats

val delete : t -> unit

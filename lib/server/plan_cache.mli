(** The shared LRU plan cache of [nestsql serve].

    Maps a statement's normalized text ([Core.prepared.normalized], the
    AST rendering) — exactly what a [Core.prepared] depends on — to that
    prepared statement, so each distinct statement is parsed, analyzed,
    classified and transformed once and executed many times, under any
    strategy and mode: those are applied at execute time and are
    not part of the key.  O(1)
    lookup/insert via a hashtable over an intrusive recency list (the same
    shape as the pager's LRU), guarded by an internal mutex so sessions on
    different connections share it safely.

    Consistency argument (DESIGN.md §14): a cached entry is only ever
    reused against the same catalog it was prepared against —
    {!invalidate} drops {e every} entry whenever [load] replaces a table or
    [CREATE INDEX] changes the index inventory — and [Core.run_prepared]
    on a cached entry runs the identical verify/plan/execute path as a
    fresh [Core.run], so cached and fresh plans are result-identical by
    construction.  The property suite holds exactly that under the oracle
    comparator. *)

type counters = {
  hits : int;
  misses : int;
  evictions : int;  (** entries dropped for capacity *)
  invalidations : int;  (** entries dropped by {!invalidate} *)
}

type t

(** [create ~capacity ()] — [capacity] is clamped to at least 1. *)
val create : capacity:int -> unit -> t

val capacity : t -> int

(** Live entries (≤ capacity). *)
val length : t -> int

(** Lookup; bumps the entry to most-recently-used and counts a hit or a
    miss. *)
val find : t -> string -> Core.prepared option

(** Insert (or refresh) an entry, evicting from the LRU end beyond
    capacity.  Does not count a hit or miss. *)
val add : t -> string -> Core.prepared -> unit

(** Drop every entry (table contents or indexes changed under the cached
    analyses); returns how many were dropped.  Each drop counts as an
    invalidation, not an eviction. *)
val invalidate : t -> int

(** Monotonic count of {!invalidate} calls — sessions compare it against
    the epoch their prepared statements were built in to notice staleness. *)
val epoch : t -> int

val counters : t -> counters

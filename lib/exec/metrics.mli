(** Per-operator runtime counters for [EXPLAIN ANALYZE].

    One record per physical operator, filled in by {!Explain}'s observer
    during execution.  Wall-clock and pager counters are {e inclusive} —
    pulling a row from an operator pulls from its children too — while
    [rows] and [next_calls] are per operator by construction.  Use
    {!self_io} to attribute page traffic to the operator that caused it. *)

type t = {
  mutable rows : int;  (** rows this operator produced *)
  mutable next_calls : int;  (** calls to the iterator's [next]/[next_batch] *)
  mutable batches : int;
      (** non-empty batches produced (a batch operator; 0 for a row operator) *)
  mutable build_s : float;
      (** wall-clock seconds opening the iterator, summed over its loops
          (eager work: sorts, materializations, hash builds); the plan's
          compilation precedes every open and is not included *)
  mutable next_s : float;  (** wall-clock seconds inside [next], inclusive *)
  mutable logical_reads : int;  (** pager page requests, inclusive *)
  mutable physical_reads : int;  (** buffer-pool misses, inclusive *)
  mutable physical_writes : int;  (** pages written, inclusive *)
  mutable loops : int;
      (** times the operator was opened: 1, or once per binding for a
          plan an [Apply] re-opens; every other counter sums over them *)
}

(** A zeroed record. *)
val create : unit -> t

(** Accumulate a pager counter delta into the record. *)
val add_io : t -> Storage.Pager.stats -> unit

(** [merge dst ~src] folds every counter of [src] into [dst].  The server's
    per-session accounting merges one record per executed statement into a
    session-lifetime total. *)
val merge : t -> src:t -> unit

(** [build_s + next_s]. *)
val total_s : t -> float

(** Output rows per [next] call (1.0 for row operators; up to
    [Batch.max_rows] for batch operators). *)
val rows_per_call : t -> float

(** [(logical, physical_reads, physical_writes)] caused by this operator
    alone: the inclusive counters minus the [children]'s inclusive counters,
    clamped at 0. *)
val self_io : t -> children:t list -> int * int * int

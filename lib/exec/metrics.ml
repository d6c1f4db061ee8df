(* Per-operator runtime counters for EXPLAIN ANALYZE.

   One record per physical operator, filled in by [Explain]'s observer while
   the plan executes: output rows, [next] calls, wall-clock spent building
   the operator (the eager work of sorts, materializations and hash builds)
   and pulling rows from it, and the pager traffic both phases caused.

   Time and page counters are *inclusive*: pulling a row from an operator
   pulls rows from its children, so a parent's numbers contain its
   children's.  Renderers subtract child totals to attribute I/O to the
   operator that caused it ([self_io]); rows and [next] calls are per
   operator by construction. *)

type t = {
  mutable rows : int; (* rows this operator produced *)
  mutable next_calls : int;
  mutable batches : int; (* non-empty batches (batch operators only) *)
  mutable build_s : float; (* wall-clock building the iterator *)
  mutable next_s : float; (* wall-clock inside next(), inclusive *)
  mutable logical_reads : int; (* pager traffic, inclusive *)
  mutable physical_reads : int;
  mutable physical_writes : int;
  mutable loops : int; (* times the operator was opened *)
}

let create () =
  {
    rows = 0;
    next_calls = 0;
    batches = 0;
    build_s = 0.;
    next_s = 0.;
    logical_reads = 0;
    physical_reads = 0;
    physical_writes = 0;
    loops = 0;
  }

let add_io m (s : Storage.Pager.stats) =
  m.logical_reads <- m.logical_reads + s.Storage.Pager.logical_reads;
  m.physical_reads <- m.physical_reads + s.Storage.Pager.physical_reads;
  m.physical_writes <- m.physical_writes + s.Storage.Pager.physical_writes

(* Fold [src] into [dst].  Sessions (the server layer) keep one record per
   connection and merge each statement's totals into it, so rows, wall-clock
   and page traffic accumulate across statements exactly the way a single
   operator accumulates across [next] calls. *)
let merge dst ~src =
  dst.rows <- dst.rows + src.rows;
  dst.next_calls <- dst.next_calls + src.next_calls;
  dst.batches <- dst.batches + src.batches;
  dst.loops <- dst.loops + src.loops;
  dst.build_s <- dst.build_s +. src.build_s;
  dst.next_s <- dst.next_s +. src.next_s;
  dst.logical_reads <- dst.logical_reads + src.logical_reads;
  dst.physical_reads <- dst.physical_reads + src.physical_reads;
  dst.physical_writes <- dst.physical_writes + src.physical_writes

let total_s m = m.build_s +. m.next_s

(* Output rows per [next] call.  1.0 for row operators by construction;
   ~[Batch.max_rows] for saturated batch operators — the direct
   measure of how much per-call overhead batching amortizes. *)
let rows_per_call m = float_of_int m.rows /. float_of_int (max 1 m.next_calls)

(* I/O caused by this operator alone: inclusive counters minus the children's
   inclusive counters.  Never negative, because a child's page traffic only
   happens inside its parent's build or next phases. *)
let self_io m ~children =
  let sub field =
    max 0 (field m - List.fold_left (fun acc c -> acc + field c) 0 children)
  in
  ( sub (fun m -> m.logical_reads),
    sub (fun m -> m.physical_reads),
    sub (fun m -> m.physical_writes) )

(** EXPLAIN / EXPLAIN ANALYZE rendering and per-operator instrumentation.

    Rendering is annotation-driven: the caller supplies lookup functions for
    planner estimates (see [Optimizer.Estimate]) and for runtime metrics
    (produced here), both keyed by plan node {e physical identity} — a
    plan's subterms are built once, so [==] names an operator.  The trace
    facility emits one JSON line per operator open / next-batch / close
    (schema in docs/EXPLAIN.md). *)

(** A planner estimate attached to one operator: cumulative page-I/O cost to
    produce its full output once, and output cardinality. *)
type est = { est_rows : float; est_cost : float }

(** An instrumentation session: one per executed plan.  Collects a
    {!Metrics.t} per operator and optionally emits trace lines. *)
type session

(** [session ?trace pager] — [trace] receives one JSON line per operator
    event; page traffic is attributed via [pager] counter snapshots. *)
val session : ?trace:(string -> unit) -> Storage.Pager.t -> session

(** The observer to pass to {!Plan.run}: wraps every operator with row /
    [next]-call / wall-clock / page-I/O counting (and trace emission). *)
val observer : session -> Plan.observer

(** The observer to pass to {!Plan.run_vec}.  Timer reads and pager
    snapshots happen once per {e batch}, not per row, so instrumentation
    overhead stays amortized; [rows] counts selected rows, [batches]
    non-empty batches. *)
val observer_vec : session -> Plan.vec_observer

(** Metrics recorded for [node] during this session, if it was executed
    (the base-table scan under a nested-loop or index join is driven by the
    join itself and has none). *)
val metrics : session -> Plan.node -> Metrics.t option

(** Indented operator tree, one line per operator:
    [label  (cost=C rows=R)  (actual: rows=.. next=.. time=..ms io=L/P/W)].
    The estimate suffix appears where [estimate] yields one; the actual
    suffix appears iff [metrics] is supplied ([-] for uninstrumented
    operators); [io] is the operator's {e self} page traffic
    (logical/physical-read/physical-write, children subtracted). *)
val render :
  ?estimate:(Plan.node -> est option) ->
  ?metrics:(Plan.node -> Metrics.t option) ->
  ?indent:int ->
  Plan.node ->
  string

(** The same tree as one JSON object:
    [{"op", "est_cost"?, "est_rows"?, "actual"?, "children":[...]}]. *)
val render_json :
  ?estimate:(Plan.node -> est option) ->
  ?metrics:(Plan.node -> Metrics.t option) ->
  Plan.node ->
  Json.t

(** Physical planning and execution of canonical queries and transformed
    programs — the "[SEL 79]-style optimizer" the paper hands its canonical
    queries to.

    Left-deep join trees in FROM order; a cost-based choice between
    nested-loop and sort-merge per join (the paper's §4/§7 page-I/O
    arithmetic, via {!Cost}); restrictions pushed below joins; interesting
    orders tracked so born-sorted temps (§7.4) skip re-sorting; GROUP BY /
    DISTINCT by sorting unless the order already holds.

    The {!mode} contract: [Paper1987] restricts the search space to the
    operators and costs the paper knew — results and I/O counts are then
    directly comparable to its tables; [Hybrid] widens the same search to
    hash operators under the blended I/O+CPU model and must never change
    {e results}, only plans.  {!explain_segments} exposes the chosen plans
    with per-operator estimates ({!Estimate}) and, under ANALYZE, measured
    runtime ({!Exec.Explain}). *)

exception Planning_error of string

type join_choice = Auto | Force_nl | Force_merge | Force_hash
(** [Force_hash] selects the beyond-the-paper in-memory hash join. *)

type mode = Paper1987 | Hybrid
(** [Paper1987] (the default) reproduces the paper: sort-based
    DISTINCT/GROUP BY, joins costed on page I/O alone.  [Hybrid] also
    considers the hash operators ([Hash] join, [Hash_distinct],
    [Hash_group_agg]) under the blended I/O+CPU cost model; hash paths
    are only taken when their build state fits the buffer pool. *)

(** ["paper1987"] / ["hybrid"] — the names {!mode_of_string} accepts. *)
val mode_name : mode -> string

(** Case-insensitive; also accepts ["paper"] for [Paper1987].  [None] for
    anything else — callers (CLI [--mode], the server protocol) must treat
    that as an error, never as a silent default. *)
val mode_of_string : string -> mode option

type lowered = {
  plan : Exec.Plan.node;
  out_sorted : int list option;
      (** output column positions the result is sorted on, if known *)
}

(** Lower a canonical (subquery-free) query to a physical plan.
    @raise Planning_error on nested predicates or malformed shapes. *)
val lower :
  ?force:join_choice ->
  ?mode:mode ->
  Storage.Catalog.t ->
  Sql.Ast.query ->
  lowered

(** Structurally verify a transformed program against the invariants the
    corrected algorithms guarantee (NQ900–NQ906: canonical definitions,
    resolvable references, compatible join types, GROUP BY keys covered by
    equality join-backs, outer join iff COUNT, COUNT over a null-padded
    inner column, no dead temps).  Thin adapter over
    {!Analysis.Rewrite_verifier.verify}; an empty list means sound. *)
val verify_program :
  Storage.Catalog.t -> Program.t -> Analysis.Diagnostics.t list

val drop_temps : Storage.Catalog.t -> Program.t -> unit

(** What every strategy reaches the executor as: the segments
    {!run_segments}, {!check_segments} and {!explain_segments} walk in one
    loop. *)
type segments =
  | Plan of Exec.Plan.node
      (** one ["main"] segment, lowered already: nested iteration's
          ({!Exec.Sysr_iteration.lower}) or batched bindings'
          ({!Batched_nest.lower}) plan *)
  | Program of Program.t
      (** a transformed program: each temp (["temp NAME"]) lowered against
          the catalog as the earlier temps left it, executed and registered
          under its program name (column names from
          [Program.output_column_names], order metadata from the plan),
          then ["main"] *)

(** Run every segment and return the main plan's result.  A program's
    temps stay registered (the paper's tables print their contents);
    remove them with {!drop_temps}.  [force]/[mode] govern the lowering of
    a program's segments; a [Plan] is already lowered.  [session]
    instruments every execution with the {!Exec.Explain} observer.  A
    program is not verified here: callers run {!verify_program} first
    ([Core] refuses on any Error-severity violation). *)
val run_segments :
  ?force:join_choice ->
  ?mode:mode ->
  ?session:Exec.Explain.session ->
  Storage.Catalog.t ->
  segments ->
  Relalg.Relation.t

(** [run_segments] of [Program p].  [engine] is ignored: there is one
    executor ({!Exec.Plan.engine}). *)
val run_program :
  ?force:join_choice ->
  ?mode:mode ->
  ?engine:Exec.Plan.engine ->
  ?session:Exec.Explain.session ->
  Storage.Catalog.t ->
  Program.t ->
  Relalg.Relation.t

(** Type-check ({!Analysis.Plan_check}) the plans {!run_segments} runs:
    each is compiled as the run compiles it, one NQ110 or NQ115 when it
    does not compile, and a plan that compiles is checked for NQ111 and
    NQ112.  Segments are lowered as {!run_segments} lowers them, and each
    temp is executed and registered so the next segment plans against its
    result.  Stops after the first segment with an Error-severity
    violation.  Returns each checked segment as (["temp NAME"] or
    ["main"], plan, its diagnostics), in order; no diagnostics anywhere
    means every plan checks clean.  Temps are dropped before returning. *)
val check_segments :
  ?force:join_choice ->
  ?mode:mode ->
  Storage.Catalog.t ->
  segments ->
  (string * Exec.Plan.node * Analysis.Diagnostics.t list) list

type explained = {
  seg_label : string;  (** ["temp NAME"] or ["main"] *)
  seg_text : string;  (** annotated operator tree, indent 1 *)
  seg_json : Json.t;  (** the same tree as one JSON object *)
  seg_rows : int option;  (** rows the segment produced, under ANALYZE *)
}
(** One pipeline segment of an EXPLAIN \[ANALYZE\], annotated with
    {!Estimate} numbers and — under [~analyze:true] — runtime metrics. *)

(** EXPLAIN \[ANALYZE\] every segment, lowered as {!run_segments} lowers
    it.  A program's temps are executed either way (later segments plan
    against their results); [~analyze:true] additionally instruments every
    execution — including the main plan, which otherwise never runs — and
    annotates each operator with actual rows / [next] calls / wall-clock /
    page I/Os; under ANALYZE a re-opened inner plan's actuals add up over
    its loops.  [trace] receives one JSON line per operator event plus a
    [{"ev":"segment"}] marker per segment.  Temps are dropped before
    returning. *)
val explain_segments :
  ?force:join_choice ->
  ?mode:mode ->
  ?analyze:bool ->
  ?trace:(string -> unit) ->
  Storage.Catalog.t ->
  segments ->
  explained list

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
    {e results}, only plans.  {!explain_plans} exposes the chosen plans
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

(** Execute a lowered plan ({!Exec.Plan.run}), instrumented with the
    {!Exec.Explain} observer when a session is supplied.  Exposed for
    strategies that drive plans directly (nested iteration and
    {!Batched_nest}). *)
val run_plan :
  ?session:Exec.Explain.session ->
  Storage.Catalog.t ->
  Exec.Plan.node ->
  Relalg.Relation.t

(** Type-check one physical plan ({!Analysis.Plan_check}, NQ110–NQ115);
    [label] names it in the refusal.
    @raise Planning_error on any Error-severity violation. *)
val check_plan :
  label:string ->
  Storage.Catalog.t ->
  Exec.Plan.node ->
  unit

(** Plan, execute and register one temp definition under its program name
    (column names from [Program.output_column_names], order metadata from
    the plan).  [session] instruments the execution with the
    {!Exec.Explain} observer.  [engine] is ignored: there is one executor
    ({!Exec.Plan.engine}). *)
val materialize_temp :
  ?force:join_choice ->
  ?mode:mode ->
  ?engine:Exec.Plan.engine ->
  ?session:Exec.Explain.session ->
  Storage.Catalog.t ->
  Program.temp ->
  unit

(** Structurally verify a transformed program against the invariants the
    corrected algorithms guarantee (NQ900–NQ906: canonical definitions,
    resolvable references, compatible join types, GROUP BY keys covered by
    equality join-backs, outer join iff COUNT, COUNT over a null-padded
    inner column, no dead temps).  Thin adapter over
    {!Analysis.Rewrite_verifier.verify}; an empty list means sound. *)
val verify_program :
  Storage.Catalog.t -> Program.t -> Analysis.Diagnostics.t list

(** Run a whole program: temps in order, then the main query.  Temps stay
    registered (the paper's tables print their contents); remove them with
    {!drop_temps}.  [engine] and [session] as in {!materialize_temp}.  The
    program is not verified here: callers run {!verify_program} first
    ([Core] refuses on any Error-severity violation).  With [~check:true]
    every lowered physical plan is type-checked ({!Analysis.Plan_check},
    NQ110–NQ115) immediately before it executes and refused with
    [Planning_error] on any violation. *)
val run_program :
  ?force:join_choice ->
  ?mode:mode ->
  ?check:bool ->
  ?engine:Exec.Plan.engine ->
  ?session:Exec.Explain.session ->
  Storage.Catalog.t ->
  Program.t ->
  Relalg.Relation.t

(** Type-check every physical plan of a program ({!Analysis.Plan_check})
    without executing anything: temps are lowered and registered as empty
    relations of their output schemas so later segments plan against real
    names, then dropped.  [[]] means the whole lowered pipeline checks
    clean. *)
val check_program :
  ?force:join_choice ->
  ?mode:mode ->
  Storage.Catalog.t ->
  Program.t ->
  Analysis.Diagnostics.t list

val drop_temps : Storage.Catalog.t -> Program.t -> unit

type explained = {
  seg_label : string;  (** ["temp NAME"] or ["main"] *)
  seg_plan : Exec.Plan.node;
  seg_text : string;  (** annotated operator tree, indent 1 *)
  seg_json : Json.t;  (** the same tree as one JSON object *)
}
(** One pipeline segment of an EXPLAIN \[ANALYZE\], annotated with
    {!Estimate} numbers and — under [~analyze:true] — runtime metrics. *)

(** EXPLAIN \[ANALYZE\] every segment of a program.  Temp definitions are
    executed either way (later segments plan against their registered
    schemas and statistics, as {!run_program} would); [~analyze:true]
    additionally instruments every execution — including the main query,
    which otherwise never runs — and annotates each operator with actual
    rows / [next] calls / wall-clock / page I/Os.  [trace] receives one
    JSON line per operator event plus a [{"ev":"segment"}] marker per
    segment.  [engine] is ignored, as in {!materialize_temp}.  Temps are
    dropped before returning. *)
val explain_plans :
  ?force:join_choice ->
  ?mode:mode ->
  ?analyze:bool ->
  ?engine:Exec.Plan.engine ->
  ?trace:(string -> unit) ->
  Storage.Catalog.t ->
  Program.t ->
  explained list

(** EXPLAIN \[ANALYZE\] of one plan as (text at indent 1, JSON): {!Estimate}
    annotations, and under [~analyze:true] the actuals of [run session],
    which must execute the plan under the session; [trace] gets a
    [{"ev":"segment","name":label}] marker first. *)
val explain_plan :
  analyze:bool ->
  ?trace:(string -> unit) ->
  Storage.Catalog.t ->
  label:string ->
  run:(Exec.Explain.session -> unit) ->
  Exec.Plan.node ->
  string * Json.t

(** {!explain_plans} flattened to text: ["label:\n<tree>"] segments
    separated by blank lines. *)
val explain_text :
  ?force:join_choice ->
  ?mode:mode ->
  ?analyze:bool ->
  ?engine:Exec.Plan.engine ->
  ?trace:(string -> unit) ->
  Storage.Catalog.t ->
  Program.t ->
  string

(** Physical plans of the whole pipeline as text (materializes and then
    drops the temps so later definitions can be planned); equivalent to
    {!explain_text} without analysis. *)
val explain :
  ?force:join_choice -> ?mode:mode -> Storage.Catalog.t -> Program.t -> string

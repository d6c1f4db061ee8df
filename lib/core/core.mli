(** Nested SQL query unnesting — reproduction of Ganski & Wong, SIGMOD 1987.

    The facade over the whole pipeline: define tables, parse and classify
    nested queries, transform them with NEST-G (NEST-N-J / NEST-JA2 / the §8
    extension rewrites), plan and execute either strategy over paged storage
    with page-I/O accounting, and compare results side by side. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Pager = Storage.Pager
module Catalog = Storage.Catalog

type db

val version : string

(** [create_db ~buffer_pages ~page_bytes ()] — [buffer_pages] is the
    paper's B. *)
val create_db : ?buffer_pages:int -> ?page_bytes:int -> unit -> db

val catalog : db -> Catalog.t

(** [define_table db name columns rows] registers a base table.
    @raise Invalid_argument on malformed rows or duplicate names. *)
val define_table :
  db -> string -> (string * Value.ty) list -> Value.t list list -> unit

(** @raise Catalog.Unknown_table *)
val table : db -> string -> Relation.t

(** [create_index db table ~column] builds a B-tree on [table.column]
    (build page I/O is charged to the pager; see {!Storage.Btree.build}).
    @raise Catalog.Unknown_table *)
val create_index : db -> string -> column:string -> unit

(** Recognize the [CREATE INDEX [name] ON table (column)] DDL the CLI,
    REPL and server all accept; [execute_create_index] validates it
    against the catalog and builds the index, returning a human-readable
    summary. *)
val is_create_index : string -> bool
val execute_create_index : db -> string -> (string, string) result

(** Auto's first rung, from {!decision}'s pricing of [prepare_query db q]:
    [Some (nested, alternative)] when indexed nested iteration is priced at
    or below the rung Auto would otherwise run — the transformed program
    when the query transforms, batched execution after a refusal,
    [infinity] when both refuse.  [None] when no index probe applies or
    the alternative is cheaper. *)
val indexed_nested_choice : db -> Sql.Ast.query -> (float * float) option

(** Parse and analyze (name resolution, literal coercion, validation). *)
val parse : db -> string -> (Sql.Ast.query, string) result

(** Kim's classification of the query's nesting ([None] for flat queries). *)
val classify : db -> string -> (Optimizer.Classify.t option, string) result

(** Full NEST-G transformation to a canonical program.  [on_step]
    receives a trace line per transformation action. *)
val transform :
  ?on_step:(string -> unit) ->
  db ->
  string ->
  (Optimizer.Program.t, string) result

(** [transform] plus the collected trace lines, in order. *)
val transform_traced :
  db ->
  string ->
  (Optimizer.Program.t * string list, string) result

(** The Figure-2-style query-block tree. *)
val query_tree : db -> string -> (Optimizer.Query_tree.t, string) result

(** Lint one or more ';'-separated queries: parse/analysis diagnostics
    (NQ100/NQ101), Kim-classification cross-check and the paper's three
    bug-class warnings (NQ001 COUNT bug, NQ002 non-equality correlation,
    NQ003 duplicate outer join column) plus hygiene checks, and — for
    transformable queries — structural verification of the transformed
    program (NQ900–NQ906).  See docs/LINT.md. *)
val lint_query : db -> string -> Analysis.Diagnostics.t list

type strategy =
  | Nested_iteration  (** the System R method, over paged storage *)
  | Transformed of Optimizer.Planner.join_choice
  | Batched of Optimizer.Planner.join_choice
      (** Guravannavar batched bindings ({!Optimizer.Batched_nest}): the
          planner-lowered outer block, one inner evaluation per distinct
          correlation-key batch *)
  | Auto
      (** a ladder: indexed nested iteration when {!indexed_nested_choice}
          prices it cheapest, else transform; after a refusal, batched
          when {!Optimizer.Estimate.prefer_batched} prices it below nested
          iteration, else (and after batching refuses) nested iteration *)

(** ["nested"] / ["transformed"] / ["batched"] / ["auto"] — the shared
    vocabulary of the CLI [--strategy], the REPL [\strategy] and the server
    protocol.  Join forcing is orthogonal; the bare names carry
    [Planner.Auto].  {!strategy_of_string} is case-insensitive, also
    accepts ["nested-iteration"], and returns [None] for anything else —
    callers must treat that as an error, never a silent default. *)
val strategy_name : strategy -> string

val strategy_of_string : string -> strategy option

(** Which path actually produced a result — [Auto] resolves to one of the
    concrete three. *)
type via = Via_nested | Via_transformed | Via_batched

(** ["nested_iteration"] / ["transformed"] / ["batched"], as the server's
    [strategy] result field reports. *)
val via_name : via -> string

(** Auto's candidates when an index probe applies, in page I/O: indexed
    nested iteration ({!Optimizer.Estimate.indexed_nested_cost}), a lower
    bound of the statement's own transformed program
    ({!Optimizer.Estimate.transformed_bound} of the forced
    {!prepared.program}; [None] when it refuses) and batched execution
    ({!Optimizer.Estimate.batched_cost}; [None] without a batchable
    subquery).  Pricing materializes nothing, but forces the program. *)
type candidates = {
  est_nested : float;
  est_transformed : float option;
  est_batched : float option;
}

(** Auto's decision on one statement, from the one walk of its ladder that
    {!run} and {!explain_query} share: the [candidates] when an index
    probe applies, the [pick], and the rungs [refused] before it, in order. *)
type decision = {
  candidates : candidates option;
  pick : via;
  refused : (via * string) list;
}

type execution = {
  result : Relation.t;
  via : via;
  program : Optimizer.Program.t option;
  io : Pager.stats;  (** page traffic of this execution only *)
  decision : decision option;  (** Auto's; [None] under a forced strategy *)
}

type prepared = {
  normalized : string;
      (** canonical rendering of the analyzed AST ([Sql.Pp]); two statements
          differing only in whitespace/case normalize identically; the
          server's plan cache keys on it *)
  query : Sql.Ast.query;  (** the analyzed AST *)
  program : (Optimizer.Program.t, string) result Lazy.t;
      (** the NEST-G transformation, forced at most once ([Error] = not
          transformable), by Auto's pricing or the transformed rung.  Not
          thread-safe to force concurrently — the server forces it under
          its statement lock. *)
}
(** A statement with the per-statement pipeline work — parse, analyze,
    normalize, transform — done once, ready to be executed many times.
    This is the unit the server's plan cache stores. *)

(** Parse + analyze + (lazily) transform one statement. *)
val prepare : db -> string -> (prepared, string) result

(** {!prepare} for an already-analyzed query (no re-parse). *)
val prepare_query : db -> Sql.Ast.query -> prepared

(** Execute a prepared statement: exactly {!run} minus the per-statement
    work.  [run p] and [run_prepared (prepare p)] are result-identical —
    the plan-cache test suite holds this across strategies and modes
    under the oracle comparator.  When the statement ends, the
    pager files its operators created and left unregistered (sort runs,
    materialized nested-loop inners) are deleted, as by
    {!explain_query}. *)
val run_prepared :
  ?strategy:strategy ->
  ?mode:Optimizer.Planner.mode ->
  ?trace:(string -> unit) ->
  db ->
  prepared ->
  (execution, string) result

(** Run a query.  [trace] turns on per-operator JSON event tracing (one
    line per operator open / next-batch / close; see [docs/EXPLAIN.md]) —
    every strategy runs a plan, so every strategy is traced — plus, under
    [Auto], one ["auto"] line with the {!decision}.  Every strategy runs
    as {!Optimizer.Planner.segments}, its result presented by
    {!Exec.Presentation.present}.  [mode] parameterizes the planner
    lowering (the differential oracle sweeps it).  [engine] is ignored:
    there is one executor ({!Exec.Plan.run}).  Transformed programs are
    structurally verified ({!Optimizer.Planner.verify_program}) before
    running; {!check_query} type-checks the plans statically. *)
val run :
  ?strategy:strategy ->
  ?mode:Optimizer.Planner.mode ->
  ?engine:Exec.Plan.engine ->
  ?trace:(string -> unit) ->
  db ->
  string ->
  (execution, string) result

(** [run] and keep only the rows. *)
val query : db -> string -> (Relation.t, string) result

(** EXPLAIN \[ANALYZE] of the plans [strategy] (default [Auto]) runs, as
    annotated text (planner cost/cardinality estimates per operator).
    With [~analyze:true] the plans are also executed, instrumented, and
    each operator gains actual rows / [next] calls / wall-clock / page
    I/Os; [trace] receives one JSON line per operator event
    (see [docs/EXPLAIN.md]).  A batch operator's actuals include
    [rows/call] > 1 and a [batches] count.  Every strategy's segments are
    {!Optimizer.Planner.explain_segments}', rendered as ["LABEL:\n<tree>"]
    blocks.  A program's close with its bounded-equivalence certificate;
    a forced nested or batched plan is headed by a [strategy:] line and
    closed under ANALYZE by a [result:] row count.  [Auto] walks {!run}'s
    ladder and heads the pick's segments with its {!decision} as one
    [auto:] line, so it succeeds exactly when {!run} does. *)
val explain_query :
  ?strategy:strategy ->
  ?mode:Optimizer.Planner.mode ->
  ?analyze:bool ->
  ?trace:(string -> unit) ->
  db ->
  string ->
  (string, string) result

type check_report = {
  ck_sql : string;  (** canonical rendering of the checked query *)
  ck_refused : (via * string) list;
      (** the rungs that refused, as {!decision} records them, each once *)
  ck_plans : (string * Exec.Plan.node) list;
      (** every plan type-checked, in order, labelled
          ["nested_iteration main"], then per mode ["MODE batched main"],
          ["MODE transformed temp NAME"] and ["MODE transformed main"] *)
  ck_diags : Analysis.Diagnostics.t list;
      (** plan-validation (NQ110–NQ115, each message prefixed with its
          plan's label) and equivalence (NQ120–NQ122) diagnostics, sorted *)
  ck_verdict : Analysis.Equiv_check.verdict option;
  ck_certificate : string option;
      (** one-line bounded-equivalence certificate *)
  ck_repro : (string, string) result option;
      (** counterexample database as a replayable oracle repro [.sql], or
          why the repro format cannot hold it *)
}
(** The semantic checker's report on one query: typed validation of every
    plan {!run} can run, lowered as it lowers them (a program's temps are
    executed) — nested iteration, then batched bindings and the
    transformed program in both planner modes — plus, when the query
    transforms, the bounded counterexample search for the rewrite. *)

(** Check one analyzed query (see {!check_source} for text input).
    [bound] is the rows-per-relation search bound (default 2). *)
val check_query : ?bound:int -> db -> Sql.Ast.query -> check_report

(** Parse, analyze and {!check_query} one or more ';'-separated queries. *)
val check_source :
  ?bound:int -> db -> string -> (check_report list, string) result

(** The [nestsql check --json] document:
    [{"version":N,"queries":[{"sql","diagnostics","refused"?,
    "certificate"?,"repro"?,"repro_error"?}]}], ["refused"] the rewrite's
    refusal, ["repro_error"] why a counterexample has no ["repro"]. *)
val check_json : check_report list -> Json.t

type comparison = {
  nested : execution;
  transformed : execution option;  (** [None] when not transformable *)
  agree : bool;  (** {!Analysis.Equiv_check.agree}, the oracle's rule *)
}

(** Run both strategies and compare results and I/O. *)
val compare_strategies : db -> string -> (comparison, string) result

val pp_execution : execution Fmt.t

(** Bounded counterexample search for rewrite equivalence.

    For a candidate rewrite — the original nested query and the
    transformed program (ordered temp definitions plus a flat main query,
    the same plain-data shape {!Rewrite_verifier} takes) — exhaustively
    enumerate every database with at most [bound] rows per base relation
    over a per-column three-value abstract domain {const₁, const₂, NULL},
    evaluate both sides under the non-optimizing reference semantics
    ({!Exec.Nested_iter}; a small canonical-program evaluator supplies the
    left-outer-join semantics of generated [Cmp_outer] predicates), and
    either certify "equivalent up to the bound" or return a minimal
    witness database on which the two sides disagree.

    The abstract constants are chosen per column: literals the query
    compares the column against seed the domain (plus a value on the other
    side of every range literal, and 0 for columns compared against COUNT
    subqueries), defaults fill the rest — so the paper's §5 COUNT bug on
    Q2 falls out as a one-row witness at [bound = 2] without running the
    fuzzer.  Results are compared by {!agree}, the rule the differential
    oracle and [Core.compare_strategies] share. *)

type witness = {
  w_tables : (string * Relalg.Relation.t) list;
      (** the counterexample database, in registration order *)
  w_expected : Relalg.Relation.t;  (** original query, reference semantics *)
  w_got : Relalg.Relation.t;  (** transformed program, reference semantics *)
}

type verdict =
  | Equivalent of { bound : int; databases : int }
      (** agreement on every enumerated database (a bounded certificate,
          not a proof) *)
  | Not_equivalent of witness
      (** minimal witness: no enumerated database with fewer total rows
          distinguishes the two sides *)
  | Inconclusive of string
      (** unsupported shape or search budget exhausted *)

(** Do two results of [original] agree, NULL equal to NULL?  As multisets
    when the query fixes multiplicities (DISTINCT / GROUP BY / aggregates),
    as sets otherwise (the §5.4 duplicate residue).  Order is ignored. *)
val agree :
  original:Sql.Ast.query -> Relalg.Relation.t -> Relalg.Relation.t -> bool

(** [check ~lookup ~temps ~main original] searches databases up to
    [bound] rows per relation (default 2), visiting at most
    [max_databases] databases (default 50_000) and at most [max_rows]
    distinct candidate rows per relation (default 100).  [lookup] resolves
    base-table schemas; [original] (the positional argument) and the
    program queries must be analyzed.

    [nullable ~rel col] answers "may the stored column contain NULL?"
    (default: everywhere [true]).  Columns it proves non-null are
    enumerated without NULL — the same catalog precondition the §8
    COUNT-form rewrite guards consume, so a certificate for a guarded
    rewrite quantifies over exactly the database class the guard admitted
    it for. *)
val check :
  ?bound:int ->
  ?max_databases:int ->
  ?max_rows:int ->
  ?nullable:(rel:string -> string -> bool) ->
  lookup:(string -> Relalg.Schema.t option) ->
  temps:(string * Sql.Ast.query) list ->
  main:Sql.Ast.query ->
  Sql.Ast.query ->
  verdict

(** Render a witness as a self-contained oracle-repro [.sql] file in
    {!Workload.Repro_format} — ["-- table"] / ["-- row"] data lines plus
    the original query — which [nestsql fuzz --replay] accepts.  [Error]
    says why when the format cannot hold a witness value (a string with a
    comma or newline): no repro is better than one that does not replay. *)
val witness_to_repro :
  ?description:string ->
  original:Sql.Ast.query ->
  witness ->
  (string, string) result

(** One-line summary for EXPLAIN output, e.g.
    ["equivalence: verified up to 2 rows/relation (1296 databases)"]. *)
val certificate : verdict -> string

(** The verdict as diagnostics: NQ120 (error, with the witness inline) on
    a counterexample, NQ121 (info certificate) on bounded equivalence,
    NQ122 (warning) when inconclusive. *)
val diagnostics : span:Sql.Ast.span -> verdict -> Diagnostics.t list

(** The recursive general transformation (§9, procedure nest_g): postorder
    over the query tree, so inner blocks are canonical — and have inherited
    any deeper ("trans-aggregate") correlations — before classification.
    Type-A blocks become one-row temps; type-N/J merge via NEST-N-J;
    type-JA goes through NEST-JA2. *)

(** How to treat the multiplicity unsoundness NEST-N-J inherits from Kim's
    Lemma 1 when an IN-block is merged below a COUNT/SUM/AVG aggregate:
    [Safe] (default) dedup-merges the uncorrelated case through a DISTINCT
    temp and refuses the correlated case, and refuses to merge a scalar
    comparison [x op (SELECT col ...)] whose block is not an aggregate (SQL
    fails it when the block returns several rows; the join would answer
    one row per match); [Paper] reproduces the published algorithm
    verbatim, wrong answers included. *)
type semantics = Safe | Paper

(** Transform a nested query of arbitrary depth into a canonical program.
    [fresh] allocates temp-table names.  The beyond-the-paper NOT IN →
    COUNT rewrite and the §8 [!= ANY] / range-[ALL] COUNT forms are guarded by [nullable ~rel col] ("may this
    column be NULL?"), defaulting to the conservative
    [Extensions.default_nullable] under which they refuse.  [on_step]
    receives a human-readable trace line for every action the recursion
    takes (sec.-8 rewrite, NEST-N-J merge, type-A materialization,
    NEST-JA2 application, keyed TEMP2) in postorder.  [probe_keys] is
    passed to every {!Nest_ja2.transform} (default: never; the program is
    then the paper's); the notes and probes of the keyed TEMP2s it
    accepts are collected in the program's [notes] and [probes].
    @raise Program.Refused on shapes outside the paper's algorithms. *)
val transform :
  ?semantics:semantics ->
  ?nullable:(rel:string -> string -> bool) ->
  ?probe_keys:(Program.key_probe -> string option) ->
  ?on_step:(string -> unit) ->
  fresh:(unit -> string) ->
  Sql.Ast.query ->
  Program.t

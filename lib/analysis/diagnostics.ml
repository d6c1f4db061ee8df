(* Structured static-analysis diagnostics.

   Every finding of the lint pass and the rewrite verifier is a diagnostic
   with a stable NQ-prefixed code, a severity, a source span (the enclosing
   query block's, [Ast.no_span] for generated programs), a human message and
   an optional hint citing the paper section that explains the situation.
   Diagnostics render as pretty text (one line each) and as JSON (the format
   CI consumes; schema in docs/LINT.md). *)

module Ast = Sql.Ast

type severity = Error | Warning | Info

type t = {
  code : string; (* stable, e.g. "NQ001" *)
  title : string; (* stable slug, e.g. "count-bug-susceptible" *)
  severity : severity;
  span : Ast.span;
  message : string;
  hint : string option; (* paper citation / suggested fix *)
}

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* ------------------------------------------------------------------ *)
(* The code catalogue (the contract documented in docs/LINT.md)        *)
(* ------------------------------------------------------------------ *)

(* code, slug, default severity, one-line description *)
let catalogue : (string * string * severity * string) list =
  [
    ( "NQ001", "count-bug-susceptible", Warning,
      "type-JA block whose aggregate is COUNT: Kim's NEST-JA loses \
       zero-count outer tuples (the Kiessling COUNT bug, sec. 5.1-5.2); the \
       rewrite needs NEST-JA2's outer join" );
    ( "NQ002", "non-equality-correlation", Warning,
      "type-JA block correlated under !=, <, <=, > or >=: grouping the \
       inner relation alone keys groups by the wrong side (sec. 5.3); the \
       rewrite needs NEST-JA2's theta-joined temp table" );
    ( "NQ003", "duplicate-outer-join-column", Warning,
      "outer join column of a type-JA block has duplicate values: joining \
       the raw outer relation would inflate the aggregate (sec. 5.4); the \
       rewrite needs the DISTINCT projection TEMP1" );
    ( "NQ004", "unused-from-alias", Warning,
      "FROM binds an alias no column reference uses: the block computes a \
       cross product over it" );
    ( "NQ005", "constant-false-predicate", Warning,
      "predicate can never be satisfied; the block returns no rows" );
    ( "NQ006", "classification-mismatch", Error,
      "lint's Kim classification disagrees with Optimizer.Classify \
       (internal cross-check; report this)" );
    ( "NQ007", "no-rewrite-available", Info,
      "nested predicate has no transformation in the paper (x = ALL, NOT \
       IN); evaluation falls back to nested iteration" );
    ( "NQ008", "multiplicity-sensitive-merge", Warning,
      "correlated non-aggregate subquery below a COUNT/SUM/AVG outer \
       block: NEST-N-J's IN-to-join merge would change the aggregate's \
       multiplicity; the planner refuses the rewrite (Safe semantics)" );
    ( "NQ100", "syntax-error", Error, "the query does not parse" );
    ( "NQ101", "resolution-error", Error,
      "name resolution or typing failed (analyzer diagnostic)" );
    ( "NQ110", "plan-unresolved", Error,
      "a physical plan does not compile: a table, column or parameter does \
       not resolve, or a predicate, value subquery or aggregate list is \
       one the executor cannot compile" );
    ( "NQ111", "plan-type-mismatch", Error,
      "a physical plan predicate or join condition compares columns of \
       incompatible types" );
    ( "NQ112", "plan-nullability", Error,
      "null-provenance violation: COUNT above a preserving (left outer) \
       join counts a column padding can never make NULL, so empty groups \
       count 1 instead of 0 (sec. 5.2.1)" );
    ( "NQ115", "plan-operator-contract", Error,
      "a physical plan does not compile: an operator's method contract is \
       broken (merge/hash join without an equality condition, index scan \
       without its index, index join over anything but an index scan)" );
    ( "NQ120", "rewrite-not-equivalent", Error,
      "bounded counterexample search found a database on which the \
       transformed program disagrees with the original query" );
    ( "NQ121", "equivalence-bounded", Info,
      "the transformed program agrees with the original query on every \
       database up to the search bound (a bounded-equivalence \
       certificate, not a proof)" );
    ( "NQ122", "equivalence-inconclusive", Warning,
      "bounded counterexample search gave up (unsupported shape or search \
       budget exhausted); the rewrite is neither certified nor refuted" );
    ( "NQ900", "non-canonical-program", Error,
      "a transformed program still contains a nested predicate" );
    ( "NQ901", "dangling-reference", Error,
      "a transformed query references a column or table its FROM clause \
       does not provide" );
    ( "NQ902", "join-schema-mismatch", Error,
      "a join predicate compares columns of incompatible types" );
    ( "NQ903", "group-by-join-back-mismatch", Error,
      "a grouped temp table's GROUP BY keys are not exactly the columns \
       its consumers join back on under equality (sec. 5.3/6)" );
    ( "NQ904", "outer-join-count-mismatch", Error,
      "a grouped aggregate temp has an outer join iff its aggregate is \
       COUNT violated (sec. 5.1-5.2/6)" );
    ( "NQ905", "count-star-not-converted", Error,
      "an outer-joined COUNT temp still counts * (or a preserved-side \
       column) instead of a null-padded inner column (sec. 5.2.1)" );
    ( "NQ906", "unused-temp", Error,
      "a temp table is defined but never referenced by a later query" );
  ]

let find_code code =
  List.find_opt (fun (c, _, _, _) -> String.equal c code) catalogue

(* [make code span fmt] builds a diagnostic, taking slug and severity from
   the catalogue (codes not in the catalogue are a programming error). *)
let make ?hint code span fmt =
  let title, severity =
    match find_code code with
    | Some (_, slug, sev, _) -> (slug, sev)
    | None -> invalid_arg ("Diagnostics.make: unknown code " ^ code)
  in
  Fmt.kstr (fun message -> { code; title; severity; span; message; hint }) fmt

let has_errors diags = List.exists (fun d -> d.severity = Error) diags

(* Stable presentation order: by position, then severity, then code. *)
let sort diags =
  List.stable_sort
    (fun a b ->
      let pos (d : t) = (d.span.Ast.sp_start.line, d.span.Ast.sp_start.col) in
      match compare (pos a) (pos b) with
      | 0 -> (
          match compare (severity_rank a.severity) (severity_rank b.severity)
          with
          | 0 -> compare a.code b.code
          | c -> c)
      | c -> c)
    diags

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp ppf (d : t) =
  Fmt.pf ppf "%s[%s] %a: %s" (severity_name d.severity) d.code Ast.pp_span
    d.span d.message;
  match d.hint with None -> () | Some h -> Fmt.pf ppf "  (%s)" h

let pp_list ppf diags =
  List.iter (fun d -> Fmt.pf ppf "%a@." pp d) (sort diags)

let to_string d = Fmt.str "%a" pp d

let list_to_string diags = Fmt.str "%a" pp_list diags

let to_json (d : t) =
  let sp = d.span in
  Json.Obj
    ([
       ("code", Json.Str d.code);
       ("title", Json.Str d.title);
       ("severity", Json.Str (severity_name d.severity));
       ( "span",
         Json.Obj
           [
             ("line", Json.Int sp.Ast.sp_start.line);
             ("col", Json.Int sp.Ast.sp_start.col);
             ("end_line", Json.Int sp.Ast.sp_end.line);
             ("end_col", Json.Int sp.Ast.sp_end.col);
           ] );
       ("message", Json.Str d.message);
     ]
    @ match d.hint with None -> [] | Some h -> [ ("hint", Json.Str h) ])

let list_to_json diags = Json.List (List.map to_json (sort diags))

(* The stable CI surface (`nestsql lint --json`, the server's lint
   response): a versioned envelope so consumers can detect schema changes.
   Version history in docs/LINT.md; bump [json_version] on any
   incompatible change to [to_json]. *)
let json_version = 1

let report_fields diags =
  [
    ("version", Json.Int json_version);
    ("errors", Json.Bool (has_errors diags));
    ("diagnostics", list_to_json diags);
  ]

let json_report diags = Json.Obj (report_fields diags)

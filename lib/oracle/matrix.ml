(* The execution matrix: one query, every evaluation path the system has.

   Reference: in-memory nested iteration ([Exec.Nested_iter]) plus the
   presentation ORDER BY — the non-optimizing evaluator the paper treats
   as ground truth, which shares no code with the executor.  Candidates:
   the paged nested iteration; the NEST-G transformed program under every
   (planner mode x forced join method) combination; the batched-bindings
   strategy ([Optimizer.Batched_nest]) under every (mode x forced join)
   combination — the third independent strategy, which accepts the shapes
   the guarded rewrites refuse; and the end-to-end Auto strategy (the
   ladder users actually run: transform, else batched, else nested), so
   refusal cases get a real second opinion instead of only a refusal tally.
   Everything goes through [Core.run] so the verifier and the presentation
   sort are on the same path users take.

   A candidate that *refuses* (query not transformable, or a soundness
   guard such as the nullable-COUNT-form check declines) is fine — a
   refusal is never a wrong answer.  A candidate that runs must agree with
   the reference; one that fails mid-flight (planning error, verifier
   rejection of a generated program, runtime error) is as much a
   discrepancy as a wrong answer. *)

module Relation = Relalg.Relation
module Row = Relalg.Row
module Value = Relalg.Value
module Planner = Optimizer.Planner

type candidate =
  | Paged_nested
  | Rewrite of { mode : Planner.mode; force : Planner.join_choice }
  | Batched of { mode : Planner.mode; force : Planner.join_choice }
  | Auto_path of { mode : Planner.mode }
  (* The index axis: same strategies with a B-tree on every column of
     every table, so index-only code paths (Sysr probe enumeration,
     IndexScan / index nested-loop plans, Auto's §7 crossover) face the
     same random workload as the unindexed cells — and must agree. *)
  | Indexed_nested
  | Indexed_rewrite of { mode : Planner.mode }
  | Indexed_auto of { mode : Planner.mode }

let mode_label = function
  | Planner.Paper1987 -> "paper"
  | Planner.Hybrid -> "hybrid"

let force_label = function
  | Planner.Auto -> "auto"
  | Planner.Force_nl -> "nl"
  | Planner.Force_merge -> "merge"
  | Planner.Force_hash -> "hash"

let candidate_label = function
  | Paged_nested -> "paged-nested"
  | Rewrite { mode; force } ->
      Printf.sprintf "rewrite/%s/%s" (mode_label mode) (force_label force)
  | Batched { mode; force } ->
      Printf.sprintf "batched/%s/%s" (mode_label mode) (force_label force)
  | Auto_path { mode } -> Printf.sprintf "auto/%s" (mode_label mode)
  | Indexed_nested -> "indexed-nested"
  | Indexed_rewrite { mode } ->
      Printf.sprintf "indexed-rewrite/%s" (mode_label mode)
  | Indexed_auto { mode } -> Printf.sprintf "indexed-auto/%s" (mode_label mode)

(* The full grid: 1 paged-nested + 6 forced rewrites (2 modes x 3 forced
   joins) + 8 batched (2 modes x 4 join choices) + 2 end-to-end Auto (one
   per mode) + 5 indexed (nested, rewrite x 2 modes, auto x 2 modes) = 22
   executions per query.  The Auto cells subsume force=auto rewrite cells
   (same execution when the transformation applies) and additionally
   exercise the batched/nested fallback ladder when it refuses; the index
   axis runs with a B-tree on every column, covering probe-based nested
   enumeration, IndexScan/index-join plans, and the §7 crossover. *)
let modes = [ Planner.Paper1987; Planner.Hybrid ]

let all_candidates =
  (Paged_nested
  :: List.concat_map
       (fun mode ->
         List.map
           (fun force -> Rewrite { mode; force })
           [ Planner.Force_nl; Planner.Force_merge; Planner.Force_hash ])
       modes)
  @ List.concat_map
      (fun mode ->
        List.map
          (fun force -> Batched { mode; force })
          [ Planner.Auto; Planner.Force_nl; Planner.Force_merge;
            Planner.Force_hash ])
      modes
  @ List.map (fun mode -> Auto_path { mode }) modes
  @ (Indexed_nested
    :: List.concat_map
         (fun mode -> [ Indexed_rewrite { mode }; Indexed_auto { mode } ])
         modes)

type verdict =
  | Agree
  | Refused of string  (* transformation declined; not a discrepancy *)
  | Mismatch of { expected : Relation.t; got : Relation.t }
  | Failed of string  (* planning / verification / runtime error *)

type outcome = { candidate : candidate; verdict : verdict }

type result = {
  reference : (Relation.t, string) Stdlib.result;
  outcomes : outcome list;  (* empty when the reference itself failed *)
}

(* ---------------- comparator ------------------------------------------ *)

(* The comparison is [Analysis.Equiv_check.agree]'s, the one rule the
   bounded equivalence search and [Core.compare_strategies] share:
   NULL-aware, multiset where the query fixes multiplicities, set
   otherwise.  Under ORDER BY both sides are presentation-sorted, so the
   candidate's delivered order must also respect the sort keys. *)
let sorted_under (q : Sql.Ast.query) (rel : Relation.t) =
  match q.Sql.Ast.order_by with
  | [] -> true
  | keys -> (
      let schema = Relation.schema rel in
      match
        List.map
          (fun ((c : Sql.Ast.col_ref), dir) ->
            (Relalg.Schema.find schema c.column, dir))
          keys
      with
      | exception _ -> false
      | positions ->
          let le a b =
            let rec go = function
              | [] -> true
              | (i, dir) :: rest -> (
                  let c = Value.compare (Row.get a i) (Row.get b i) in
                  let c =
                    match dir with Sql.Ast.Asc -> c | Sql.Ast.Desc -> -c
                  in
                  if c < 0 then true else if c > 0 then false else go rest)
            in
            go positions
          in
          let rec pairs = function
            | a :: (b :: _ as rest) -> le a b && pairs rest
            | _ -> true
          in
          pairs (Relation.rows rel))

let results_agree ~(q : Sql.Ast.query) ~reference ~got =
  Analysis.Equiv_check.agree ~original:q reference got && sorted_under q got

(* ---------------- running --------------------------------------------- *)

let is_refusal msg =
  (* [Core.transform] tags every transformation refusal; anything else out
     of the transformed path (parse errors never reach here on generated
     queries, planner/verifier failures do) is a genuine failure. *)
  let prefix = "not transformable:" in
  String.length msg >= String.length prefix
  && String.sub msg 0 (String.length prefix) = prefix

let run_reference (case : Repro.case) : (Relation.t, string) Stdlib.result =
  let db = Repro.build_db case in
  match Core.parse db case.sql with
  | Error _ as e -> e
  | Ok q -> (
      match Exec.Nested_iter.run (Core.catalog db) q with
      | rel -> Ok (Exec.Presentation.apply_order q rel)
      | exception Exec.Nested_iter.Runtime_error msg -> Error msg)

(* For the index-axis cells: a B-tree on every column of every table (the
   most adversarial inventory — every probe/access-path opportunity is
   taken; duplicate column names within a table cannot occur in generated
   cases, but be defensive anyway). *)
let index_everything db =
  let catalog = Core.catalog db in
  List.iter
    (fun name ->
      match Storage.Catalog.lookup catalog name with
      | None -> ()
      | Some schema ->
          List.iter
            (fun (c : Relalg.Schema.column) ->
              try Core.create_index db name ~column:c.Relalg.Schema.name
              with _ -> ())
            (Relalg.Schema.columns schema))
    (Storage.Catalog.table_names catalog)

(* Each candidate runs against its own freshly loaded database: a failed
   program can leave temps behind, and pager/statistics state must not
   leak between grid cells.  The plans a cell runs are type-checked
   statically, by [Core.check_query] (fuzz --check), not here. *)
let run_candidate (case : Repro.case) candidate :
    (Relation.t, string) Stdlib.result =
  let db = Repro.build_db case in
  (match candidate with
  | Indexed_nested | Indexed_rewrite _ | Indexed_auto _ ->
      index_everything db
  | Paged_nested | Rewrite _ | Batched _ | Auto_path _ -> ());
  let strategy =
    match candidate with
    | Paged_nested | Indexed_nested -> Core.Nested_iteration
    | Rewrite { force; _ } -> Core.Transformed force
    | Indexed_rewrite _ -> Core.Transformed Planner.Auto
    | Batched { force; _ } -> Core.Batched force
    | Auto_path _ | Indexed_auto _ -> Core.Auto
  in
  let mode =
    match candidate with
    | Paged_nested | Indexed_nested -> None
    | Rewrite { mode; _ }
    | Batched { mode; _ }
    | Auto_path { mode }
    | Indexed_rewrite { mode }
    | Indexed_auto { mode } ->
        Some mode
  in
  match Core.run ~strategy ?mode db case.sql with
  | Ok e -> Ok e.Core.result
  | Error _ as e -> e
  | exception Exec.Nested_iter.Runtime_error msg -> Error ("runtime: " ^ msg)

let run_case ?(candidates = all_candidates) (case : Repro.case) :
    result =
  match run_reference case with
  | Error _ as reference -> { reference; outcomes = [] }
  | Ok reference ->
      let db0 = Repro.build_db case in
      let q =
        match Core.parse db0 case.sql with
        | Ok q -> q
        | Error msg -> invalid_arg ("Matrix.run_case: " ^ msg)
      in
      let outcomes =
        List.map
          (fun candidate ->
            let verdict =
              match run_candidate case candidate with
              | Ok got ->
                  if results_agree ~q ~reference ~got then Agree
                  else Mismatch { expected = reference; got }
              | Error msg ->
                  if is_refusal msg then Refused msg else Failed msg
            in
            { candidate; verdict })
          candidates
      in
      { reference = Ok reference; outcomes }

let discrepancies (r : result) =
  List.filter
    (fun o ->
      match o.verdict with
      | Agree | Refused _ -> false
      | Mismatch _ | Failed _ -> true)
    r.outcomes

(* One line per disagreeing candidate, for logs and repro descriptions. *)
let describe_verdict = function
  | Agree -> "agree"
  | Refused msg -> "refused: " ^ msg
  | Failed msg -> "failed: " ^ msg
  | Mismatch { expected; got } ->
      Printf.sprintf "mismatch: expected %d rows, got %d rows"
        (Relation.cardinality expected)
        (Relation.cardinality got)

let describe (r : result) =
  match r.reference with
  | Error msg -> [ "reference failed: " ^ msg ]
  | Ok _ ->
      List.filter_map
        (fun o ->
          match o.verdict with
          | Agree | Refused _ -> None
          | v -> Some (candidate_label o.candidate ^ ": " ^ describe_verdict v))
        r.outcomes

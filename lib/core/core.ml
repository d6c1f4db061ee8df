(* Public facade: everything a user of the library needs for the
   parse → analyze → classify → transform → plan → execute pipeline, plus
   side-by-side comparison of the two evaluation strategies (the experiment
   the whole paper is about). *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Pager = Storage.Pager
module Catalog = Storage.Catalog

type db = { catalog : Catalog.t }

let version = "1.0.0"

let create_db ?(buffer_pages = 8) ?(page_bytes = 4096) () =
  { catalog = Catalog.create (Pager.create ~buffer_pages ~page_bytes ()) }

let catalog db = db.catalog

let define_table db name columns rows =
  Catalog.register_relation db.catalog name
    (Relation.of_values ~rel:name columns rows)

let table db name = Catalog.relation db.catalog name

let create_index db name ~column = Catalog.create_index db.catalog name ~column

(* [CREATE INDEX [idx_name] ON table (column)] — one parser shared by the
   CLI, the REPL and the server so the accepted DDL can't drift.  The
   optional index name is accepted (and discarded: at most one index per
   column, named by position).  Returns [(table, column)]. *)
let parse_create_index text : (string * string) option =
  let text =
    match String.index_opt text ';' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  let tokens =
    String.split_on_char ' '
      (String.map
         (function '(' | ')' | '\t' | '\n' | '\r' | ',' -> ' ' | c -> c)
         text)
    |> List.filter (fun s -> s <> "")
  in
  let keyword k t = String.uppercase_ascii t = k in
  match tokens with
  | [ create; index; on; table; column ]
    when keyword "CREATE" create && keyword "INDEX" index && keyword "ON" on
    ->
      Some (table, column)
  | [ create; index; _name; on; table; column ]
    when keyword "CREATE" create && keyword "INDEX" index && keyword "ON" on
    ->
      Some (table, column)
  | _ -> None

let is_create_index text = Option.is_some (parse_create_index text)

let execute_create_index db text : (string, string) result =
  match parse_create_index text with
  | None ->
      Error "syntax: CREATE INDEX [name] ON table (column)"
  | Some (table, column) -> (
      if not (Catalog.mem db.catalog table) then
        Error (Fmt.str "unknown table %s" table)
      else
        match Catalog.column_stats db.catalog table column with
        | None -> Error (Fmt.str "no column %s in %s" column table)
        | Some _ ->
            if List.mem column (Catalog.indexed_columns db.catalog table) then
              Ok (Fmt.str "index on %s(%s) already exists" table column)
            else begin
              Catalog.create_index db.catalog table ~column;
              Ok (Fmt.str "created index on %s(%s)" table column)
            end)

(* ------------------------------------------------------------------ *)
(* Pipeline stages                                                     *)
(* ------------------------------------------------------------------ *)

let parse db text =
  match Sql.Parser.parse text with
  | Error _ as e -> e
  | Ok q -> Sql.Analyzer.analyze ~lookup:(Catalog.lookup db.catalog) q

let classify db text =
  Result.map Optimizer.Classify.classify_query (parse db text)

(* "May [col] of relation [rel] be NULL?", answered from exact catalog
   statistics (relations are immutable once registered, so nulls = 0 is a
   proof).  Feeds the soundness guards of the §8 COUNT-form rewrites and
   the NOT IN extension; anything unresolvable stays conservatively
   nullable. *)
let column_nullable db ~rel col =
  match Catalog.column_stats db.catalog rel col with
  | Some (_, cs) -> cs.Storage.Stats.nulls > 0
  | None -> true

(* NEST-JA2's keyed-TEMP2 decision against this catalog: probe the inner
   B-tree with TEMP1's keys when one descent per key undercuts the inner
   relation's pages (Estimate.keyed_temp2). *)
let probe_keys db kp =
  Option.map Optimizer.Estimate.describe_keyed_temp2
    (Optimizer.Estimate.keyed_temp2 db.catalog kp)

(* NEST-G over an already-analyzed query, its temps named by [fresh]. *)
let transform_with ~rewrite_not_in ?on_step ~probe_keys ~fresh db q =
  match
    Optimizer.Nest_g.transform ~rewrite_not_in ~nullable:(column_nullable db)
      ~probe_keys ?on_step ~fresh q
  with
  | program -> Ok program
  | exception Optimizer.Nest_g.Unsupported msg
  | exception Optimizer.Ja_shape.Not_ja msg
  | exception Optimizer.Nest_n_j.Not_applicable msg
  | exception Optimizer.Extensions.Unsupported msg ->
      Error ("not transformable: " ^ msg)

(* [transform] and the prepared-statement path both come through here. *)
let transform_query ?(rewrite_not_in = false) ?on_step db q =
  transform_with ~rewrite_not_in ?on_step ~probe_keys:(probe_keys db)
    ~fresh:(fun () -> Catalog.fresh_temp_name db.catalog)
    db q

let transform ?rewrite_not_in ?on_step db text =
  match parse db text with
  | Error _ as e -> e
  | Ok q -> transform_query ?rewrite_not_in ?on_step db q

(* The transformation together with its step-by-step trace. *)
let transform_traced ?rewrite_not_in db text =
  let steps = ref [] in
  let on_step s = steps := s :: !steps in
  Result.map
    (fun program -> (program, List.rev !steps))
    (transform ?rewrite_not_in ~on_step db text)

(* The paper's query-tree view (Figure 2). *)
let query_tree db text =
  Result.map Optimizer.Query_tree.of_query (parse db text)

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

(* The injection points of the analysis library: the optimizer's classifier
   as the cross-check oracle, catalog statistics for the duplicate-join-
   column check. *)
let classify_oracle sub =
  Optimizer.Classify.name (Optimizer.Classify.classify_block sub)

let column_stats db rel col =
  Option.map
    (fun (_, cs) -> (cs.Storage.Stats.distinct, Catalog.tuples db.catalog rel))
    (Catalog.column_stats db.catalog rel col)

(* Lint one or more ';'-separated queries: parse/analysis diagnostics
   (NQ100/NQ101), the static checks (NQ001-NQ008), and — when a query is
   transformable — structural verification of its transformed program
   (NQ900-NQ906), so a broken rewrite surfaces as a lint error before
   anything executes. *)
let lint_query db text : Analysis.Diagnostics.t list =
  let lookup = Catalog.lookup db.catalog in
  let base =
    Analysis.Lint.lint_source ~classify:classify_oracle
      ~column_stats:(column_stats db) ~lookup text
  in
  let verify_diags =
    if Analysis.Diagnostics.has_errors base then []
    else
      match Sql.Parser.parse_many_exn text with
      | exception Sql.Parser.Error _ | exception Sql.Lexer.Error _ -> []
      | queries ->
          List.concat_map
            (fun q ->
              match
                Result.bind (Sql.Analyzer.analyze ~lookup q)
                  (transform_query db)
              with
              | Ok program ->
                  Optimizer.Planner.verify_program db.catalog program
              | Error _ -> [])
            queries
  in
  Analysis.Diagnostics.sort (base @ verify_diags)

(* ------------------------------------------------------------------ *)
(* Semantic checking (plan validation + bounded equivalence)           *)
(* ------------------------------------------------------------------ *)

(* One query through both checker passes: lower the transformed program
   and type-check every physical plan (NQ110-NQ115), then search for a
   bounded counterexample to the rewrite (NQ120-NQ122).  A query the
   transformation refuses yields an empty report — there is no rewrite to
   falsify, and the refusal itself is the lint layer's business. *)
type check_report = {
  ck_sql : string;  (* canonical rendering of the checked query *)
  ck_refused : string option;  (* transformation refusal, when any *)
  ck_diags : Analysis.Diagnostics.t list;
  ck_verdict : Analysis.Equiv_check.verdict option;
  ck_certificate : string option;
  ck_repro : string option;  (* witness database as a replayable .sql *)
}

(* The bounded counterexample search for [program] as a rewrite of [q]. *)
let equivalence ~bound db (q : Sql.Ast.query) (program : Optimizer.Program.t) =
  Analysis.Equiv_check.check ~bound ~nullable:(column_nullable db)
    ~lookup:(Catalog.lookup db.catalog)
    ~temps:
      (List.map
         (fun { Optimizer.Program.name; def } -> (name, def))
         program.Optimizer.Program.temps)
    ~main:program.Optimizer.Program.main q

let check_query ?(bound = 2) db (q : Sql.Ast.query) : check_report =
  let ck_sql = Sql.Pp.query_to_string q in
  match transform_query db q with
  | Error msg ->
      {
        ck_sql;
        ck_refused = Some msg;
        ck_diags = [];
        ck_verdict = None;
        ck_certificate = None;
        ck_repro = None;
      }
  | Ok program ->
      let plan_diags = Optimizer.Planner.check_program db.catalog program in
      let verdict = equivalence ~bound db q program in
      let repro =
        match verdict with
        | Analysis.Equiv_check.Not_equivalent w ->
            Some (Analysis.Equiv_check.witness_to_repro ~original:q w)
        | _ -> None
      in
      {
        ck_sql;
        ck_refused = None;
        ck_diags =
          Analysis.Diagnostics.sort
            (plan_diags
            @ Analysis.Equiv_check.diagnostics ~span:q.Sql.Ast.span verdict);
        ck_verdict = Some verdict;
        ck_certificate = Some (Analysis.Equiv_check.certificate verdict);
        ck_repro = repro;
      }

(* Check one or more ';'-separated queries (the `nestsql check` surface). *)
let check_source ?bound db text : (check_report list, string) result =
  match Sql.Parser.parse_many_exn text with
  | exception Sql.Parser.Error (_, msg) -> Error msg
  | exception Sql.Lexer.Error (_, msg) -> Error msg
  | queries -> (
      let analyzed =
        List.map
          (Sql.Analyzer.analyze ~lookup:(Catalog.lookup db.catalog))
          queries
      in
      match
        List.find_map
          (function Error msg -> Some msg | Ok _ -> None)
          analyzed
      with
      | Some msg -> Error msg
      | None ->
          Ok
            (List.map
               (function
                 | Ok q -> check_query ?bound db q
                 | Error _ -> assert false)
               analyzed))

(* The `nestsql check --json` document: the schema version plus one object
   per checked query. *)
let check_json reports =
  let query r =
    Json.Obj
      (("sql", Json.Str r.ck_sql)
      :: ("diagnostics", Analysis.Diagnostics.list_to_json r.ck_diags)
      :: List.filter_map Fun.id
           [
             Option.map (fun m -> ("refused", Json.Str m)) r.ck_refused;
             Option.map (fun c -> ("certificate", Json.Str c)) r.ck_certificate;
             Option.map (fun t -> ("repro", Json.Str t)) r.ck_repro;
           ])
  in
  Json.Obj
    [
      ("version", Json.Int Analysis.Diagnostics.json_version);
      ("queries", Json.List (List.map query reports));
    ]

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type strategy =
  | Nested_iteration (* the System R method, over paged storage *)
  | Transformed of Optimizer.Planner.join_choice
  | Batched of Optimizer.Planner.join_choice
    (* Guravannavar batched bindings: planner-lowered outer block, one
       inner evaluation per distinct correlation-key batch *)
  | Auto
    (* indexed nested iteration when priced cheapest, else transform when
       possible, else batched when priced below nested iteration, else
       nested iteration *)

(* The names the CLI (--strategy), the REPL (\strategy) and the server
   protocol all accept — one parser so the surfaces can't drift.  Join
   forcing is orthogonal (the --join flag / force knob); the bare names
   map to [Planner.Auto]. *)
let strategy_name = function
  | Nested_iteration -> "nested"
  | Transformed _ -> "transformed"
  | Batched _ -> "batched"
  | Auto -> "auto"

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "auto" -> Some Auto
  | "nested" | "nested-iteration" -> Some Nested_iteration
  | "transformed" -> Some (Transformed Optimizer.Planner.Auto)
  | "batched" -> Some (Batched Optimizer.Planner.Auto)
  | _ -> None

(* Which path actually produced the result (Auto resolves to one of the
   concrete three). *)
type via = Via_nested | Via_transformed | Via_batched

let via_name = function
  | Via_nested -> "nested_iteration"
  | Via_transformed -> "transformed"
  | Via_batched -> "batched"

type execution = {
  result : Relation.t;
  via : via;
  program : Optimizer.Program.t option;
  io : Pager.stats; (* page traffic of this execution only *)
}

(* A statement with the per-statement work done once: parse/analyze (the
   analyzed AST), the normalized rendering (the server's plan-cache key
   text), and the NEST-G transformation — lazy so strategies that never
   touch the transformed path ([Nested_iteration]) don't pay for it, and
   forced at most once however many times the plan is re-executed. *)
type prepared = {
  normalized : string;
  query : Sql.Ast.query;
  rewrite_not_in : bool;
  program : (Optimizer.Program.t, string) result Lazy.t;
}

let prepare_query ?(rewrite_not_in = false) db q =
  {
    normalized = Sql.Pp.query_to_string q;
    query = q;
    rewrite_not_in;
    program = lazy (transform_query ~rewrite_not_in db q);
  }

let prepare ?rewrite_not_in db text =
  Result.map (prepare_query ?rewrite_not_in db) (parse db text)

(* The §7 crossover, priced.  When some frame of the nested enumeration
   can probe a B-tree, Auto's candidates are priced in page I/O with
   Estimate's one vocabulary: indexed nested iteration, the program the
   transformation produces (bounded below by what it must read: keyed TEMP2
   probes included), and batched execution.  The program comes from the
   same transformation Auto runs, under private temp names so that pricing
   leaves the catalog's TEMP# numbering alone; nothing is materialized.
   [None] when no probe applies: Auto then runs its ladder unpriced. *)
type candidates = {
  est_nested : float;
  est_transformed : float option;  (* [None]: the transformation refuses *)
  est_batched : float option;  (* [None]: no batchable subquery *)
}

let auto_candidates db (q : Sql.Ast.query) : candidates option =
  Option.map
    (fun est_nested ->
      let keyed = ref [] in
      let probe_keys (kp : Optimizer.Nest_ja2.key_probe) =
        Option.map
          (fun k ->
            keyed := (kp.inner_rel, k) :: !keyed;
            Optimizer.Estimate.describe_keyed_temp2 k)
          (Optimizer.Estimate.keyed_temp2 db.catalog kp)
      in
      let fresh = ref 0 in
      let fresh () =
        incr fresh;
        Printf.sprintf "PRICED#%d" !fresh
      in
      {
        est_nested;
        est_transformed =
          Result.to_option
            (Result.map
               (fun (program : Optimizer.Program.t) ->
                 Optimizer.Estimate.transformed_bound db.catalog q
                   ~keyed:!keyed ~temps:(List.length program.temps))
               (transform_with ~rewrite_not_in:false ~probe_keys ~fresh db q));
        est_batched = Optimizer.Estimate.batched_cost db.catalog q;
      })
    (Optimizer.Estimate.indexed_nested_cost db.catalog q)

(* The rung Auto reaches unless it runs nested first: the program when the
   query transforms (batching never overrides a transformation), batched
   execution after a refusal; none when both refuse. *)
let alternative c =
  match (c.est_transformed, c.est_batched) with
  | Some t, _ -> t
  | None, Some b -> b
  | None, None -> infinity

(* The candidates, when indexed nested iteration is priced at or below
   that rung (ties go to nested iteration, the reference behaviour). *)
let nested_first db q =
  match auto_candidates db q with
  | Some c when c.est_nested <= alternative c -> Some c
  | _ -> None

let indexed_nested_choice db (q : Sql.Ast.query) : (float * float) option =
  Option.map (fun c -> (c.est_nested, alternative c)) (nested_first db q)

(* Run one statement's work, then delete the scratch files its operators
   left in the pager (Catalog.release_since): without this every sort and
   materialized nested-loop inner stays on the simulated disk for good. *)
let with_statement_files db f =
  let mark = Pager.mark (Catalog.pager db.catalog) in
  Fun.protect f ~finally:(fun () -> Catalog.release_since db.catalog mark)

let run_prepared ?(strategy = Auto) ?(check = false) ?mode ?engine ?trace
    ?on_fallback db (p : prepared) : (execution, string) result =
  with_statement_files db @@ fun () ->
  let q = p.query in
  let pager = Catalog.pager db.catalog in
  (* one instrumentation session for the whole pipeline *)
  let session =
    Option.map (fun t -> Exec.Explain.session ~trace:t pager) trace
  in
  (* Nested iteration's and batched execution's plans are checked
     ([~check]) and run like a transformed program's main plan. *)
  let untransformed via lower engine =
    let before = Pager.snapshot pager in
    match
      let plan = lower () in
      if check then
        Optimizer.Planner.check_plan ~engine ~label:"plan" db.catalog plan;
      Optimizer.Planner.run_plan ~engine ?session db.catalog plan
    with
    | rel ->
        let result = Exec.Sysr_iteration.present db.catalog q rel in
        Ok { result; via; program = None; io = Pager.diff_since pager before }
    | exception Optimizer.Batched_nest.Unsupported msg ->
        Error ("not transformable: batched: " ^ msg)
    | exception Optimizer.Planner.Planning_error msg -> Error msg
  in
  let run_nested () =
    untransformed Via_nested
      (fun () -> Exec.Sysr_iteration.lower db.catalog q)
      Exec.Plan.Tuple
  in
  (* Batched bindings never transform — a refusal can only come from the
     one unbatchable shape (correlated column outside a WHERE predicate),
     surfaced with the same refusal prefix the transformation guards use so
     the oracle and the Auto fallback treat it uniformly. *)
  let run_batched force =
    untransformed Via_batched
      (fun () -> Optimizer.Batched_nest.lower ~force ?mode db.catalog q)
      (Option.value engine ~default:Exec.Plan.Tuple)
  in
  (* Every transformed program is verified before it runs (NQ900-NQ906);
     a failing program is refused here and — under [Auto] — execution
     falls back to nested iteration with a warning. *)
  let run_transformed force =
    match Lazy.force p.program with
    | Error _ as e -> e
    | Ok program -> (
        let before = Pager.snapshot pager in
        match
          Optimizer.Planner.run_program ~force ?mode ~verify:true ~check
            ?engine ?session db.catalog program
        with
        | result ->
            (* ORDER BY is presentation, not plan structure: the nested
               paths sort inside [run]; the transformed path must sort
               here or a sorted query silently loses its order. *)
            let result = Exec.Presentation.apply_order q result in
            let io = Pager.diff_since pager before in
            Optimizer.Planner.drop_temps db.catalog program;
            Ok
              {
                result;
                via = Via_transformed;
                program = Some program;
                io;
              }
        | exception Optimizer.Planner.Planning_error msg ->
            Optimizer.Planner.drop_temps db.catalog program;
            Error msg)
  in
  match strategy with
  | Nested_iteration -> run_nested ()
  | Transformed force -> run_transformed force
  | Batched force -> run_batched force
  | Auto -> (
      match indexed_nested_choice db q with
      | Some (cost, alternative) ->
          (* Indexed nested iteration is priced at or below the rung Auto
             would otherwise reach — run the query un-transformed (§7's
             regime). *)
          (match on_fallback with
          | Some note ->
              note
                (Fmt.str
                   "auto: indexed nested iteration chosen (est. %.0f page \
                    I/O <= alternative est. %.0f)"
                   cost alternative)
          | None -> ());
          run_nested ()
      | None -> (
      match run_transformed Optimizer.Planner.Auto with
      | Ok _ as ok -> ok
      | Error msg ->
          (* Refused: pick the cheaper un-transformed strategy.  Batched
             wins when it is priced below nested iteration
             (Estimate.prefer_batched); it can itself
             refuse on the unbatchable shape, in which case nested
             iteration — which refuses nothing — closes the ladder. *)
          let use_batched =
            Optimizer.Estimate.prefer_batched db.catalog q
          in
          let warn fallback =
            match on_fallback with
            | Some warn ->
                warn
                  ("transformed strategy refused (" ^ msg
                 ^ "); falling back to " ^ fallback)
            | None -> ()
          in
          if use_batched then
            match run_batched Optimizer.Planner.Auto with
            | Ok _ as ok ->
                warn "batched execution";
                ok
            | Error _ ->
                warn "nested iteration";
                run_nested ()
          else begin
            warn "nested iteration";
            run_nested ()
          end))

let run ?strategy ?check ?rewrite_not_in ?mode ?engine ?trace ?on_fallback db
    text : (execution, string) result =
  match prepare ?rewrite_not_in db text with
  | Error _ as e -> e
  | Ok p ->
      run_prepared ?strategy ?check ?mode ?engine ?trace ?on_fallback db p

(* Convenience: the relation only. *)
let query db text : (Relation.t, string) result =
  Result.map (fun e -> e.result) (run db text)

(* EXPLAIN [ANALYZE] of an untransformed strategy's plan as one "main:"
   segment, estimates from [Estimate]; under ANALYZE the plan runs
   instrumented, a re-opened inner plan's actuals adding up per node. *)
let explain_untransformed ~analyze ~engine ?trace db plan =
  let rows = ref 0 in
  let run session =
    rows :=
      Relation.cardinality
        (Optimizer.Planner.run_plan ~engine ~session db.catalog plan)
  in
  let text, _ =
    Optimizer.Planner.explain_plan ~analyze ?trace db.catalog ~label:"main"
      ~run plan
  in
  if analyze then text ^ Printf.sprintf "result: %d rows\n" !rows else text

let explain_query ?strategy ?mode ?(analyze = false) ?engine ?trace db text :
    (string, string) result =
  with_statement_files db @@ fun () ->
  let untransformed name lower engine =
    match parse db text with
    | Error _ as e -> e
    | Ok q -> (
        match lower q with
        | plan ->
            Ok
              (Printf.sprintf "strategy: %s\nmain:\n%s" name
                 (explain_untransformed ~analyze ~engine ?trace db plan))
        | exception Optimizer.Batched_nest.Unsupported msg ->
            Error ("not transformable: batched: " ^ msg)
        | exception Optimizer.Planner.Planning_error msg -> Error msg)
  in
  match strategy with
  | Some (Batched force) ->
      untransformed "batched"
        (Optimizer.Batched_nest.lower ~force ?mode db.catalog)
        (Option.value engine ~default:Exec.Plan.Tuple)
  | Some Nested_iteration ->
      untransformed "nested iteration"
        (Exec.Sysr_iteration.lower db.catalog)
        Exec.Plan.Tuple
  | Some (Transformed _) | Some Auto | None -> (
      let auto = match strategy with Some (Transformed _) -> false | _ -> true in
      match parse db text with
      | Error _ as e -> e
      | Ok q -> (
          (* Under Auto, surface the §7 crossover decision: when indexed
             nested iteration is priced cheapest, execution will not
             transform at all — EXPLAIN must say so, with every candidate's
             estimate and the nested plan that will run. *)
          let header =
            match if auto then nested_first db q else None with
            | Some c ->
                let est name = Option.map (Fmt.str "; %s est. %.0f" name) in
                Fmt.str
                  "auto: indexed nested iteration (untransformed) — est. \
                   %.0f page I/O%s\n%s"
                  c.est_nested
                  (String.concat ""
                     (List.filter_map Fun.id
                        [
                          est "transformed" c.est_transformed;
                          est "batched" c.est_batched;
                        ]))
                  (let tree =
                     explain_untransformed ~analyze:false
                       ~engine:Exec.Plan.Tuple db
                       (Exec.Sysr_iteration.lower db.catalog q)
                   in
                   String.sub tree 0 (String.length tree - 1))
            | None -> ""
          in
          match transform_query db q with
          | Error _ when header <> "" ->
              (* Not transformable, but Auto has an indexed nested path:
                 that decision *is* the explanation. *)
              Ok header
          | Error _ as e -> e
          | Ok program -> (
              match
                Optimizer.Planner.explain_text ?mode ~analyze ?engine ?trace
                  db.catalog program
              with
              | text ->
                  (* Every accepted rewrite carries its bounded-equivalence
                     certificate: the counterexample search at k=2 over the
                     abstract {const₁, const₂, NULL} domain, summarized in
                     one line (see docs/LINT.md). *)
                  let verdict = equivalence ~bound:2 db q program in
                  (* Cost-based choices inside the rewrite (a keyed NEST-JA2
                     TEMP2) head the plans, as Auto's crossover note does. *)
                  let body =
                    String.concat ""
                      (List.map
                         (fun n -> n ^ "\n")
                         program.Optimizer.Program.notes)
                    ^ text ^ "\n"
                    ^ Analysis.Equiv_check.certificate verdict
                  in
                  Ok
                    (if header = "" then body
                     else header ^ "\ntransformed alternative:\n" ^ body)
              | exception Optimizer.Planner.Planning_error msg -> Error msg)))

let explain db text : (string, string) result = explain_query db text

(* ------------------------------------------------------------------ *)
(* Side-by-side comparison (the paper's experiment)                    *)
(* ------------------------------------------------------------------ *)

type comparison = {
  nested : execution;
  transformed : execution option; (* None when not transformable *)
  agree : bool; (* results equal as sets (see DESIGN.md on duplicates) *)
}

let compare_strategies db text : (comparison, string) result =
  match run ~strategy:Nested_iteration db text with
  | Error _ as e -> e
  | Ok nested -> (
      match run ~strategy:(Transformed Optimizer.Planner.Auto) db text with
      | Error _ -> Ok { nested; transformed = None; agree = true }
      | Ok transformed ->
          Ok
            {
              nested;
              transformed = Some transformed;
              agree = Relation.equal_set nested.result transformed.result;
            })

let pp_execution ppf (e : execution) =
  Fmt.pf ppf "%s: %d rows, %a"
    (match e.via with
    | Via_transformed -> "transformed"
    | Via_batched -> "batched"
    | Via_nested -> "nested iteration")
    (Relation.cardinality e.result)
    Pager.pp_stats e.io

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
let transform_with ?on_step ~probe_keys ~fresh db q =
  match
    Optimizer.Nest_g.transform ~nullable:(column_nullable db)
      ~probe_keys ?on_step ~fresh q
  with
  | program -> Ok program
  | exception Optimizer.Nest_g.Unsupported msg
  | exception Optimizer.Ja_shape.Not_ja msg
  | exception Optimizer.Nest_n_j.Not_applicable msg
  | exception Optimizer.Extensions.Unsupported msg ->
      Error ("not transformable: " ^ msg)

(* [transform] and the prepared-statement path both come through here. *)
let transform_query ?on_step db q =
  transform_with ?on_step ~probe_keys:(probe_keys db)
    ~fresh:(fun () -> Catalog.fresh_temp_name db.catalog)
    db q

let transform ?on_step db text =
  match parse db text with
  | Error _ as e -> e
  | Ok q -> transform_query ?on_step db q

(* The transformation together with its step-by-step trace. *)
let transform_traced db text =
  let steps = ref [] in
  let on_step s = steps := s :: !steps in
  Result.map
    (fun program -> (program, List.rev !steps))
    (transform ~on_step db text)

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

(* Auto's candidates on a query some index probe applies to, priced in
   page I/O (see [price]). *)
type candidates = {
  est_nested : float;
  est_transformed : float option;  (* [None]: the transformation refuses *)
  est_batched : float option;  (* [None]: no batchable subquery *)
}

(* Auto's decision on one statement: what it priced, the rung that
   answered and, in walk order, the rungs that refused before it. *)
type decision = {
  candidates : candidates option;  (* [None]: no index probe applies *)
  pick : via;
  refused : (via * string) list;
}

type execution = {
  result : Relation.t;
  via : via;
  program : Optimizer.Program.t option;
  io : Pager.stats; (* page traffic of this execution only *)
  decision : decision option; (* Auto's; [None] under a forced strategy *)
}

(* A statement with the per-statement work done once: parse/analyze (the
   analyzed AST), the normalized rendering (the server's plan-cache key
   text), and the NEST-G transformation — lazy so strategies that never
   touch the transformed path ([Nested_iteration]) don't pay for it, and
   forced at most once however many times the plan is re-executed. *)
type prepared = {
  normalized : string;
  query : Sql.Ast.query;
  program : (Optimizer.Program.t, string) result Lazy.t;
}

let prepare_query db q =
  {
    normalized = Sql.Pp.query_to_string q;
    query = q;
    program = lazy (transform_query db q);
  }

let prepare db text =
  Result.map (prepare_query db) (parse db text)

(* The §7 crossover, priced.  When some frame of the nested enumeration
   can probe a B-tree, Auto's candidates are priced in page I/O with
   Estimate's one vocabulary: indexed nested iteration, the program the
   transformation produces (bounded below by what it must read: keyed TEMP2
   probes included), and batched execution.  The program comes from the
   same transformation Auto runs, under private temp names so that pricing
   leaves the catalog's TEMP# numbering alone; nothing is materialized.
   [None] when no probe applies: Auto then walks its ladder unpriced. *)
let price db (q : Sql.Ast.query) : candidates option =
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
               (transform_with ~probe_keys ~fresh db q));
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

(* Ties go to nested iteration, the reference behaviour. *)
let indexed_first c = c.est_nested <= alternative c

let indexed_nested_choice db (q : Sql.Ast.query) : (float * float) option =
  match price db q with
  | Some c when indexed_first c -> Some (c.est_nested, alternative c)
  | _ -> None

let rungs = [ Via_nested; Via_transformed; Via_batched ]

let estimate c = function
  | Via_nested -> Some c.est_nested
  | Via_transformed -> c.est_transformed
  | Via_batched -> c.est_batched

(* What decided, on one line: the estimates, the pick's first (or that no
   probe applies), then each refusal. *)
let reason d =
  let priced c v =
    let name = if v = Via_nested then "indexed nested iteration" else via_name v in
    if v = d.pick then None else Option.map (Fmt.str "%s est. %.0f" name) (estimate c v)
  in
  String.concat "; "
    ((match d.candidates with
     | None -> [ "no index probe applies" ]
     | Some c ->
         Option.to_list (Option.map (Fmt.str "est. %.0f page I/O") (estimate c d.pick))
         @ List.filter_map (priced c) rungs)
    @ List.map
        (fun (via, msg) ->
          Fmt.str "%s refused (%s)" (via_name via)
            (String.map (function '\n' -> ' ' | c -> c) msg))
        d.refused)

let auto_header d =
  Fmt.str "auto: %s — %s"
    (match (d.pick, d.candidates) with
    | Via_nested, Some _ -> "indexed nested iteration (untransformed)"
    | Via_nested, None -> "nested iteration"
    | via, _ -> via_name via)
    (reason d)

(* The [--trace] line of one Auto statement. *)
let auto_event d =
  let json ~some = Option.fold ~none:Json.Null ~some in
  let candidates c =
    Json.Obj (List.map (fun v -> (via_name v, json ~some:(fun e -> Json.Float e) (estimate c v))) rungs)
  in
  Json.to_string
    (Json.Obj
       [
         ("ev", Json.Str "auto");
         ("pick", Json.Str (via_name d.pick));
         ("reason", Json.Str (reason d));
         ("candidates", json ~some:candidates d.candidates);
       ])

(* Auto's ladder, walked once per statement, run or explained: indexed
   nested iteration when priced first, else the transformed program; after
   it refuses, batched execution when [Estimate.prefer_batched] says so;
   nested iteration last.  [attempt] tries a rung; an [Error] moves on.
   [trace] receives the decision as one "auto" event. *)
let decide ?trace db (p : prepared) attempt =
  let candidates = price db p.query in
  let next = function
    | Via_transformed
      when Optimizer.Estimate.prefer_batched db.catalog p.query ->
        Some Via_batched
    | Via_transformed | Via_batched -> Some Via_nested
    | Via_nested -> None
  in
  let rec walk refused via =
    match attempt via with
    | Ok x ->
        let d = { candidates; pick = via; refused = List.rev refused } in
        Option.iter (fun out -> out (auto_event d)) trace;
        Ok (x, Some d)
    | Error msg -> (
        match next via with
        | Some rung -> walk ((via, msg) :: refused) rung
        | None -> Error msg)
  in
  walk []
    (match candidates with
    | Some c when indexed_first c -> Via_nested
    | _ -> Via_transformed)

(* Structural verification (NQ900-NQ906) refuses a broken program before
   it runs or is explained. *)
let verified db program =
  let diags = Optimizer.Planner.verify_program db.catalog program in
  if not (Analysis.Diagnostics.has_errors diags) then Ok program
  else Error ("transformed program failed verification:\n" ^ Analysis.Diagnostics.list_to_string diags)

(* One rung, the same for run and EXPLAIN: an untransformed plan, lowered
   here, goes to [untransformed]; the verified program to [transformed],
   its temps dropped after.  Refusals come back as [Error]: the rewrite's,
   verification's, [Batched_nest.Unsupported] and [Planning_error]. *)
let rung ?mode db (p : prepared) ~untransformed ~transformed force via =
  match
    match via with
    | Via_nested ->
        Ok (untransformed via (Exec.Sysr_iteration.lower db.catalog p.query))
    | Via_batched ->
        Ok
          (untransformed via
             (Optimizer.Batched_nest.lower ~force ?mode db.catalog p.query))
    | Via_transformed ->
        Result.map
          (fun program ->
            Fun.protect (fun () -> transformed force program) ~finally:(fun () ->
                Optimizer.Planner.drop_temps db.catalog program))
          (Result.bind (Lazy.force p.program) (verified db))
  with
  | r -> r
  | exception Optimizer.Batched_nest.Unsupported msg ->
      Error ("not transformable: batched: " ^ msg)
  | exception Optimizer.Planner.Planning_error msg -> Error msg

(* Run or EXPLAIN under [strategy]: a forced one is one rung; [Auto] walks
   the ladder. *)
let apply_strategy ?mode ?trace db p strategy ~untransformed ~transformed =
  let rung = rung ?mode db p ~untransformed ~transformed in
  let forced force via = Result.map (fun x -> (x, None)) (rung force via) in
  match strategy with
  | Nested_iteration -> forced Optimizer.Planner.Auto Via_nested
  | Transformed force -> forced force Via_transformed
  | Batched force -> forced force Via_batched
  | Auto -> decide ?trace db p (rung Optimizer.Planner.Auto)

(* Run one statement's work, then delete the scratch files its operators
   left in the pager (Catalog.release_since): without this every sort and
   materialized nested-loop inner stays on the simulated disk for good. *)
let with_statement_files db f =
  let mark = Pager.mark (Catalog.pager db.catalog) in
  Fun.protect f ~finally:(fun () -> Catalog.release_since db.catalog mark)

let run_prepared ?(strategy = Auto) ?(check = false) ?mode
    ?engine:(_ : Exec.Plan.engine option) ?trace db
    (p : prepared) : (execution, string) result =
  with_statement_files db @@ fun () ->
  let pager = Catalog.pager db.catalog in
  (* one instrumentation session for the whole pipeline *)
  let session =
    Option.map (fun t -> Exec.Explain.session ~trace:t pager) trace
  in
  let measured via program f =
    let before = Pager.snapshot pager in
    let result = f () in
    { result; via; program; io = Pager.diff_since pager before; decision = None }
  in
  let untransformed via plan =
    measured via None @@ fun () ->
    if check then Optimizer.Planner.check_plan ~label:"plan" db.catalog plan;
    Exec.Sysr_iteration.present db.catalog p.query
      (Optimizer.Planner.run_plan ?session db.catalog plan)
  in
  (* ORDER BY is presentation, not plan structure: [present] sorts the
     untransformed results, the program's is sorted here. *)
  let transformed force program =
    measured Via_transformed (Some program) @@ fun () ->
    Exec.Presentation.apply_order p.query
      (Optimizer.Planner.run_program ~force ?mode ~check ?session db.catalog
         program)
  in
  Result.map
    (fun (e, decision) -> { e with decision })
    (apply_strategy ?mode ?trace db p strategy ~untransformed ~transformed)

let run ?strategy ?check ?mode ?engine ?trace db text :
    (execution, string) result =
  Result.bind
    (prepare db text)
    (run_prepared ?strategy ?check ?mode ?engine ?trace db)

(* Convenience: the relation only. *)
let query db text : (Relation.t, string) result =
  Result.map (fun e -> e.result) (run db text)

(* EXPLAIN [ANALYZE] of an untransformed strategy's plan, estimates from
   [Estimate]; under ANALYZE the plan runs instrumented, a re-opened inner
   plan's actuals adding up per node. *)
let explain_untransformed ~analyze ?trace db plan =
  let rows = ref 0 in
  let run session =
    rows :=
      Relation.cardinality
        (Optimizer.Planner.run_plan ~session db.catalog plan)
  in
  let text, _ =
    Optimizer.Planner.explain_plan ~analyze ?trace db.catalog ~label:"main"
      ~run plan
  in
  if analyze then text ^ Printf.sprintf "result: %d rows\n" !rows else text

let explain_query ?(strategy = Auto) ?mode ?(analyze = false)
    ?engine:(_ : Exec.Plan.engine option) ?trace db text :
    (string, string) result =
  with_statement_files db @@ fun () ->
  Result.bind (parse db text) @@ fun q ->
  let p = prepare_query db q in
  let untransformed _ plan = explain_untransformed ~analyze ?trace db plan in
  (* Cost-based choices inside the rewrite (a keyed NEST-JA2 TEMP2) head
     its plans; its bounded-equivalence certificate closes them: the
     counterexample search at k=2 over {const₁, const₂, NULL}, in one line
     (docs/LINT.md). *)
  let transformed force program =
    let text =
      Optimizer.Planner.explain_text ~force ?mode ~analyze ?trace db.catalog
        program
    in
    String.concat ""
      (List.map (fun n -> n ^ "\n") program.Optimizer.Program.notes)
    ^ text ^ "\n"
    ^ Analysis.Equiv_check.certificate (equivalence ~bound:2 db q program)
  in
  Result.map
    (fun (text, decision) ->
      match decision with
      | None -> (
          match strategy with
          | Transformed _ -> text
          | Batched _ -> "strategy: batched\nmain:\n" ^ text
          | _ -> "strategy: nested iteration\nmain:\n" ^ text)
      | Some ({ pick = Via_nested; refused = []; _ } as d) ->
          (* priced first: the program Auto would otherwise run follows *)
          auto_header d ^ "\n"
          ^ String.sub text 0 (String.length text - 1)
          ^ Result.fold ~error:(Fun.const "")
              ~ok:(( ^ ) "\ntransformed alternative:\n")
              (rung ?mode db p ~untransformed ~transformed
                 Optimizer.Planner.Auto Via_transformed)
      | Some ({ pick = Via_transformed; _ } as d) ->
          auto_header d ^ "\n" ^ text
      | Some d -> auto_header d ^ "\nmain:\n" ^ text)
    (apply_strategy ?mode ?trace db p strategy ~untransformed ~transformed)

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

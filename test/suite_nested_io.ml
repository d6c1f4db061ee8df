(* Page-I/O golden for the two un-transformed strategies.

   Nested iteration and batched bindings are the strategies whose
   evaluation order decides their page traffic: which predicate runs
   first, when an uncorrelated value list is materialized, how often an
   inner block re-reads its relations.  This golden pins rows, logical
   reads, physical reads and physical writes of both strategies over the
   example corpus, the oracle's regression repros and a handful of extra
   shapes (multi-level nesting, a multi-frame inner block, uncorrelated
   IN and EXISTS, DISTINCT, GROUP BY, a literal B-tree probe), each in a
   roomy and an 8-page pool, with and without B-trees on the correlated
   columns.  Batched runs under both planner modes.  A mismatch writes
   test/golden/nested_io.actual next to the build copy. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Pager = Storage.Pager
module Planner = Optimizer.Planner
open Sql.Ast

let corpus_dir = "../examples/queries"
let regressions_dir = "../examples/queries/regressions"

(* (buffer pages, page bytes): room for everything, then a pool small
   enough that eviction decides the physical reads. *)
let pools = [ (64, 256); (8, 64) ]

type case = {
  c_name : string;
  c_sql : string;
  c_db : buffer_pages:int -> page_bytes:int -> Core.db;
}

let fixture_db name ~buffer_pages ~page_bytes =
  let db = Core.create_db ~buffer_pages ~page_bytes () in
  let module F = Workload.Fixtures in
  let tables =
    match name with
    | "kim" -> [ ("S", F.suppliers); ("P", F.parts); ("SP", F.shipments) ]
    | "count-bug" ->
        [ ("PARTS", F.kiessling_parts); ("SUPPLY", F.kiessling_supply) ]
    | "neq-bug" -> [ ("PARTS", F.neq_parts); ("SUPPLY", F.neq_supply) ]
    | "duplicates" -> [ ("PARTS", F.dup_parts); ("SUPPLY", F.dup_supply) ]
    | other -> Alcotest.failf "unknown fixture %s" other
  in
  List.iter (fun (n, rel) -> Fixtures.define_fixture db n rel) tables;
  db

let sql_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sql")
  |> List.sort String.compare

let read path = In_channel.with_open_bin path In_channel.input_all

let corpus_cases () =
  List.concat_map
    (fun file ->
      let src = read (Filename.concat corpus_dir file) in
      let fixture = Option.get (Suite_cost_goldens.fixture_pragma src) in
      List.mapi
        (fun i raw ->
          {
            c_name = Printf.sprintf "%s #%d" file (i + 1);
            c_sql = Sql.Pp.query_to_string raw;
            c_db = fixture_db fixture;
          })
        (Sql.Parser.parse_many_exn src))
    (sql_files corpus_dir)

let regression_cases () =
  List.map
    (fun file ->
      let case = Oracle.Repro.load (Filename.concat regressions_dir file) in
      {
        c_name = "regressions/" ^ file;
        c_sql = case.Oracle.Repro.sql;
        c_db =
          (fun ~buffer_pages ~page_bytes ->
            Oracle.Repro.build_db ~buffer_pages ~page_bytes case);
      })
    (sql_files regressions_dir)

(* A 400-row SUPPLY under four PARTS keys (the keyed-TEMP2 database),
   rebuilt at the requested pool. *)
let supply400_db ~buffer_pages ~page_bytes =
  let db = Core.create_db ~buffer_pages ~page_bytes () in
  Core.define_table db "PARTS"
    [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
    (List.init 12 (fun i -> [ Value.Int ((i mod 6) + 1); Value.Int (i mod 3) ]));
  Core.define_table db "SUPPLY"
    [ ("PNUM", Value.Tint); ("QUAN", Value.Tint); ("SHIPDATE", Value.Tdate) ]
    (List.init 400 (fun i ->
         [
           (if i mod 17 = 0 then Value.Null else Value.Int ((i mod 40) + 1));
           Value.Int (i mod 7);
           Value.Date { year = 1975 + (i mod 10); month = 1; day = 1 };
         ]));
  db

let shapes =
  [
    ("Q2 count bug", Fixtures.count_bug_query);
    ("Q5 max under <", Fixtures.max_quan_query);
    ("uncorrelated IN", "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY)");
    ( "uncorrelated EXISTS",
      "SELECT PNUM FROM PARTS WHERE EXISTS (SELECT PNUM FROM SUPPLY WHERE \
       QUAN > 1)" );
    ( "two subqueries",
      "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
       SUPPLY.PNUM = PARTS.PNUM) AND NOT EXISTS (SELECT PNUM FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > 5) AND QOH >= ALL (SELECT \
       QUAN FROM SUPPLY WHERE QUAN < 2)" );
    ( "two levels",
      "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
       SUPPLY.PNUM = PARTS.PNUM AND EXISTS (SELECT PNUM FROM PARTS P2 WHERE \
       P2.PNUM = SUPPLY.PNUM AND P2.QOH <= PARTS.QOH))" );
    ( "multi-frame inner",
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY, \
       PARTS P2 WHERE SUPPLY.PNUM = P2.PNUM AND P2.PNUM = PARTS.PNUM)" );
    ( "distinct over group by",
      "SELECT DISTINCT QOH FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY \
       WHERE SUPPLY.QUAN >= PARTS.QOH GROUP BY PNUM)" );
    ( "literal probe",
      "SELECT PNUM, QUAN FROM SUPPLY WHERE SUPPLY.PNUM = 3 AND QUAN IN \
       (SELECT QOH FROM PARTS WHERE PARTS.PNUM = SUPPLY.PNUM)" );
  ]

let shape_cases () =
  List.concat_map
    (fun (name, sql) ->
      [
        {
          c_name = "count-bug: " ^ name;
          c_sql = sql;
          c_db = fixture_db "count-bug";
        };
        { c_name = "supply400: " ^ name; c_sql = sql; c_db = supply400_db };
      ])
    shapes

(* The columns a correlation predicate compares, plus SUPPLY.PNUM for the
   literal probe. *)
let indexed_columns db sql =
  match Core.parse db sql with
  | Error _ -> []
  | Ok q ->
      let literal_probes =
        List.filter_map
          (function
            | Cmp (Col { table = Some t; column }, Eq, Lit _) -> (
                match
                  List.find_opt (fun f -> from_alias f = t) q.from
                with
                | Some f -> Some (f.rel, column)
                | None -> None)
            | _ -> None)
          q.where
      in
      List.sort_uniq compare
        (Suite_cost_goldens.correlated_columns q @ literal_probes)

let strategies =
  [
    ("nested", None, Core.Nested_iteration);
    ("batched", Some Planner.Paper1987, Core.Batched Planner.Auto);
    ("batched", Some Planner.Hybrid, Core.Batched Planner.Auto);
  ]

let measure case ~buffer_pages ~page_bytes ~indexes (name, mode, strategy) =
  let db = case.c_db ~buffer_pages ~page_bytes in
  List.iter (fun (rel, column) -> Core.create_index db rel ~column) indexes;
  let outcome =
    match Core.run ~strategy ?mode db case.c_sql with
    | Ok e ->
        let io = e.Core.io in
        Printf.sprintf "rows=%d logical=%d physical_reads=%d physical_writes=%d"
          (Relation.cardinality e.Core.result)
          io.Pager.logical_reads io.Pager.physical_reads
          io.Pager.physical_writes
    | Error msg -> "error: " ^ msg
    | exception Exec.Nested_iter.Runtime_error msg -> "runtime error: " ^ msg
  in
  Printf.sprintf "  %s%s: %s\n" name
    (match mode with
    | Some m -> "/" ^ Planner.mode_name m
    | None -> "")
    outcome

let golden_text () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun case ->
      let columns =
        indexed_columns (case.c_db ~buffer_pages:64 ~page_bytes:256) case.c_sql
      in
      List.iter
        (fun (buffer_pages, page_bytes) ->
          List.iter
            (fun indexes ->
              Buffer.add_string buf
                (Printf.sprintf "=== %s pool=%dx%dB index=%s\n" case.c_name
                   buffer_pages page_bytes
                   (match indexes with
                   | [] -> "none"
                   | cols ->
                       String.concat ","
                         (List.map (fun (r, c) -> r ^ "." ^ c) cols)));
              List.iter
                (fun s ->
                  Buffer.add_string buf
                    (measure case ~buffer_pages ~page_bytes ~indexes s))
                strategies)
            (if columns = [] then [ [] ] else [ []; columns ]))
        pools)
    (corpus_cases () @ regression_cases () @ shape_cases ());
  Buffer.contents buf

let test_nested_io () =
  Suite_cost_goldens.check_golden "nested_io" (golden_text ())

let suites =
  [
    ( "nested_io.golden",
      [
        Alcotest.test_case "nested and batched page I/O over the corpus"
          `Quick test_nested_io;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* The untransformed strategies' plans: EXPLAIN, checks, trace          *)
(* ------------------------------------------------------------------ *)

let modes = Planner.[ Paper1987; Hybrid ]

let explain db ?mode ?(analyze = false) strategy sql =
  match Core.explain_query ~strategy ?mode ~analyze db sql with
  | Ok text -> text
  | Error msg -> "error: " ^ msg ^ "\n"

(* Nested iteration's plan (mode-independent) and batched bindings' plan
   in both planner modes, for every corpus query with and without B-trees
   on its correlated columns, in the corpus golden's 8-page pool. *)
let explain_text () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun case ->
      let db () = case.c_db ~buffer_pages:8 ~page_bytes:64 in
      let columns = indexed_columns (db ()) case.c_sql in
      List.iter
        (fun indexes ->
          let db () =
            let db = db () in
            List.iter (fun (rel, column) -> Core.create_index db rel ~column) indexes;
            db
          in
          Buffer.add_string buf
            (Printf.sprintf "=== %s index=%s\n%s\n-- nested\n%s" case.c_name
               (match indexes with
               | [] -> "none"
               | cols -> String.concat "," (List.map (fun (r, c) -> r ^ "." ^ c) cols))
               case.c_sql
               (explain (db ()) Core.Nested_iteration case.c_sql));
          List.iter
            (fun mode ->
              Buffer.add_string buf
                (Printf.sprintf "-- batched %s\n%s" (Planner.mode_name mode)
                   (explain (db ()) ~mode (Core.Batched Planner.Auto) case.c_sql)))
            modes)
        (if columns = [] then [ [] ] else [ []; columns ]))
    (corpus_cases ());
  Buffer.contents buf

let test_explain_corpus () =
  Suite_cost_goldens.check_golden "explain_untransformed" (explain_text ())

(* EXPLAIN ANALYZE of Q2 on the count-bug fixture: the Apply's inner plan
   runs once per outer row under nested iteration and once per distinct
   key under batched bindings.  Then the transformed Q2 on the keyed-TEMP2
   database: TEMP2's index join re-opens its IndexScan once per TEMP1 key,
   which reports its own rows and page I/O (wall-clock masked). *)
let test_explain_analyze () =
  let mask = Str.global_replace (Str.regexp "time=[0-9.]+ms") "time=*" in
  let analyze db strategy =
    mask (explain db ~analyze:true strategy Fixtures.count_bug_query)
  in
  Suite_cost_goldens.check_golden "explain_analyze_apply"
    (String.concat ""
       (List.map
          (analyze (Fixtures.count_bug_db ()))
          [ Core.Nested_iteration; Core.Batched Planner.Auto ]
       @ [
           analyze (Suite_keyed_ja2.probed_db ())
             (Core.Transformed Planner.Auto);
         ]))

(* Indexed nested iteration under EXPLAIN ANALYZE: a B-tree on
   SUPPLY.PNUM, outer PNUMs that repeat, are NULL or match nothing.
   Nested iteration re-opens its equality IndexScan once per outer row
   (loops = outer rows, a NULL key probing nothing), and a two-frame
   inner block probes its second frame by an index nested-loop join;
   batched bindings
   re-opens the per-binding range [SUPPLY.PNUM < PARTS.PNUM] once per
   distinct key, probing for a small bound and scanning for a large one.
   Wall-clock masked. *)
let indexed_db () =
  let db = Core.create_db ~buffer_pages:16 ~page_bytes:256 () in
  let keys = [ Some 3; Some 3; None; Some 7; Some 99; None; Some 3; Some 30 ] in
  Core.define_table db "PARTS"
    [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
    (List.mapi
       (fun i k ->
         [ Option.fold ~none:Value.Null ~some:(fun k -> Value.Int k) k;
           Value.Int (i mod 3) ])
       keys);
  Core.define_table db "SUPPLY"
    [ ("PNUM", Value.Tint); ("QUAN", Value.Tint); ("SHIPDATE", Value.Tdate) ]
    (List.init 400 (fun i ->
         [
           (if i mod 50 = 0 then Value.Null else Value.Int ((i mod 40) + 1));
           Value.Int (i mod 7);
           Value.Date { year = 1975 + (i mod 10); month = 1; day = 1 };
         ]));
  Core.create_index db "SUPPLY" ~column:"PNUM";
  Core.create_index db "PARTS" ~column:"PNUM";
  db

let indexed_queries =
  [
    ( Core.Nested_iteration,
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM \
       SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80')" );
    ( Core.Nested_iteration,
      "SELECT PNUM FROM PARTS WHERE NOT EXISTS (SELECT * FROM SUPPLY WHERE \
       SUPPLY.PNUM = PARTS.PNUM)" );
    ( Core.Nested_iteration,
      "SELECT PNUM FROM PARTS WHERE QOH <= (SELECT COUNT(*) FROM PARTS P2, \
       SUPPLY WHERE P2.PNUM = PARTS.PNUM AND SUPPLY.PNUM = P2.PNUM)" );
    ( Core.Batched Planner.Auto,
      "SELECT PNUM FROM PARTS WHERE QOH < (SELECT COUNT(*) FROM SUPPLY \
       WHERE SUPPLY.PNUM < PARTS.PNUM)" );
  ]

let test_explain_analyze_indexed () =
  let mask = Str.global_replace (Str.regexp "time=[0-9.]+ms") "time=*" in
  Suite_cost_goldens.check_golden "explain_analyze_indexed"
    (String.concat ""
       (List.map
          (fun (strategy, sql) ->
            Printf.sprintf "== %s\n%s" sql
              (mask
                 (match
                    Core.explain_query ~strategy ~analyze:true (indexed_db ())
                      sql
                  with
                 | Ok text -> text
                 | Error msg -> "error: " ^ msg ^ "\n")))
          indexed_queries))

(* Plan_check reports nothing on either strategy's plans, over every case
   of the I/O golden. *)
let test_plans_check_clean () =
  List.iter
    (fun case ->
      List.iter
        (fun (buffer_pages, page_bytes) ->
          let db = case.c_db ~buffer_pages ~page_bytes in
          List.iter
            (fun (rel, column) -> Core.create_index db rel ~column)
            (indexed_columns db case.c_sql);
          let catalog = Core.catalog db in
          match Core.parse db case.c_sql with
          | Error _ -> ()
          | Ok q ->
              let plans =
                Exec.Sysr_iteration.lower catalog q
                :: List.filter_map
                     (fun mode ->
                       match Optimizer.Batched_nest.lower ~mode catalog q with
                       | plan -> Some plan
                       | exception Optimizer.Batched_nest.Unsupported _ -> None)
                     modes
              in
              List.iter
                (fun plan ->
                  match Analysis.Plan_check.check_catalog catalog plan with
                  | [] -> ()
                  | diags ->
                      Alcotest.failf "%s: %s\n%s" case.c_name
                        (Analysis.Diagnostics.list_to_string diags)
                        (Exec.Plan.to_string plan))
                plans)
        pools)
    (corpus_cases () @ regression_cases () @ shape_cases ())

(* --trace covers nested iteration: the Apply and its re-opened inner
   operators emit open/close events. *)
let test_nested_trace () =
  let lines = ref [] in
  (match
     Core.run ~strategy:Core.Nested_iteration
       ~trace:(fun l -> lines := l :: !lines)
       (Fixtures.count_bug_db ()) Fixtures.count_bug_query
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let has affix = List.exists (fun l -> Astring.String.is_infix ~affix l) !lines in
  Alcotest.(check bool) "Apply opens" true (has {|"op":"Apply per row|});
  Alcotest.(check bool) "the re-opened inner scan opens" true
    (has {|"op":"Scan SUPPLY"|});
  Alcotest.(check bool) "operators close" true (has {|"ev":"close"|})

let suites =
  suites
  @ [
      ( "plan_ir.untransformed",
        [
          Alcotest.test_case "EXPLAIN nested and batched over the corpus"
            `Quick test_explain_corpus;
          Alcotest.test_case "EXPLAIN ANALYZE shows Apply loops" `Quick
            test_explain_analyze;
          Alcotest.test_case "EXPLAIN ANALYZE of indexed nested iteration"
            `Quick test_explain_analyze_indexed;
          Alcotest.test_case "Plan_check clean on nested and batched plans"
            `Quick test_plans_check_clean;
          Alcotest.test_case "--trace covers nested iteration" `Quick
            test_nested_trace;
        ] );
    ]

(* EXPLAIN / EXPLAIN ANALYZE: golden output for the three query types,
   format-pinning of the ANALYZE annotations (times scrubbed), properties
   tying actual row counts to result cardinalities, and trace-event
   sanity. *)

module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module F = Workload.Fixtures
module G = Workload.Gen

let make_parts_db () =
  let db = Core.create_db ~buffer_pages:8 ~page_bytes:64 () in
  let define name rel =
    Core.define_table db name
      (List.map
         (fun (c : Core.Schema.column) -> (c.name, c.ty))
         (Core.Schema.columns (Relation.schema rel)))
      (List.map Relalg.Row.to_list (Relation.rows rel))
  in
  define "PARTS" F.kiessling_parts;
  define "SUPPLY" F.kiessling_supply;
  db

let query_n =
  "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY WHERE QUAN \
   >= 3)"

let query_j =
  "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
   SUPPLY.PNUM = PARTS.PNUM)"

(* Wall-clock digits are the only nondeterminism in ANALYZE output. *)
let scrub_times text =
  Str.global_replace (Str.regexp "time=[0-9]+\\.[0-9]+ms") "time=_ms" text

(* Every accepted rewrite's EXPLAIN now ends with its bounded-equivalence
   certificate (Equiv_check at k=2); the database count is a function of
   the query's abstract column domains, independent of stored data. *)
let certificate_550 =
  "\nequivalence: verified up to 2 rows/relation (550 databases)"

let certificate_3025 =
  "\nequivalence: verified up to 2 rows/relation (3025 databases)"

(* Under Auto, the decision heads every EXPLAIN; with no B-tree there is
   nothing to price and a transformable query runs transformed. *)
let auto_transformed = "auto: transformed — no index probe applies\n"

let check_golden name expected actual =
  if String.equal expected actual then ()
  else Alcotest.failf "%s:@.--- expected ---@.%s@.--- got ---@.%s" name
    expected actual

(* ---------------- golden EXPLAIN, one query per nesting type ----------- *)

let test_golden_type_n () =
  let db = make_parts_db () in
  check_golden "type-N explain"
    (auto_transformed
    ^ "main:\n\
    \  Project PARTS.PNUM  (cost=4.0 rows=1)\n\
    \    nested-loop inner join on PARTS.PNUM = SUPPLY.PNUM  (cost=4.0 \
     rows=1)\n\
    \      Scan PARTS  (cost=1.0 rows=3)\n\
    \      Filter SUPPLY.QUAN >= 3  (cost=3.0 rows=2)\n\
    \        Scan SUPPLY  (cost=3.0 rows=5)\n"
    ^ certificate_550)
    (Result.get_ok (Core.explain_query db query_n))

let test_golden_type_j () =
  let db = make_parts_db () in
  check_golden "type-J explain"
    (auto_transformed
    ^ "main:\n\
    \  Project PARTS.PNUM  (cost=4.0 rows=1)\n\
    \    nested-loop inner join on PARTS.QOH = SUPPLY.QUAN AND PARTS.PNUM = \
     SUPPLY.PNUM  (cost=4.0 rows=1)\n\
    \      Scan PARTS  (cost=1.0 rows=3)\n\
    \      Scan SUPPLY  (cost=3.0 rows=5)\n"
    ^ certificate_3025)
    (Result.get_ok (Core.explain_query db query_j))

let test_golden_type_ja () =
  let db = make_parts_db () in
  check_golden "type-JA explain"
    (auto_transformed
    ^ "temp TEMP#1:\n\
    \  Distinct  (cost=3.0 rows=3)\n\
    \    Project PARTS.PNUM  (cost=1.0 rows=3)\n\
    \      Scan PARTS  (cost=1.0 rows=3)\n\
     \n\
     temp TEMP#2:\n\
    \  Project SUPPLY.PNUM, SUPPLY.SHIPDATE  (cost=3.0 rows=2)\n\
    \    Filter SUPPLY.SHIPDATE < '1980-01-01'  (cost=3.0 rows=2)\n\
    \      Scan SUPPLY  (cost=3.0 rows=5)\n\
     \n\
     temp TEMP#3:\n\
    \  Project TEMP#1.PNUM, agg.COUNT_SHIPDATE  (cost=2.0 rows=2)\n\
    \    GroupAgg by [TEMP#1.PNUM] computing [COUNT(TEMP#2.SHIPDATE) AS \
     COUNT_SHIPDATE]  (cost=2.0 rows=2)\n\
    \      nested-loop left-outer join on TEMP#1.PNUM = TEMP#2.PNUM  \
     (cost=2.0 rows=4)\n\
    \        Scan TEMP#1  (cost=1.0 rows=3)\n\
    \        Scan TEMP#2  (cost=1.0 rows=3)\n\
     \n\
     main:\n\
    \  Project PARTS.PNUM  (cost=2.0 rows=1)\n\
    \    nested-loop inner join on PARTS.QOH = TEMP#3.COUNT_SHIPDATE AND \
     PARTS.PNUM <=> TEMP#3.PNUM  (cost=2.0 rows=1)\n\
    \      Scan PARTS  (cost=1.0 rows=3)\n\
    \      Scan TEMP#3  (cost=1.0 rows=3)\n"
    ^ certificate_3025)
    (Result.get_ok (Core.explain_query db F.query_q2))

(* ---------------- golden EXPLAIN ANALYZE (times scrubbed) -------------- *)

let test_golden_analyze_ja () =
  let db = make_parts_db () in
  check_golden "type-JA explain analyze"
    (auto_transformed
    ^ String.concat "\n"
       [
         "temp TEMP#1:";
         "  Distinct  (cost=3.0 rows=3)  (actual: rows=3 next=4 \
          rows/call=0.8 time=_ms io=4/0/3)";
         "    Project PARTS.PNUM  (cost=1.0 rows=3)  (actual: rows=3 \
          next=2 rows/call=1.5 batches=1 time=_ms io=0/0/0)";
         "      Scan PARTS  (cost=1.0 rows=3)  (actual: rows=3 next=2 \
          rows/call=1.5 batches=1 time=_ms io=0/0/0)";
         "";
         "temp TEMP#2:";
         "  Project SUPPLY.PNUM, SUPPLY.SHIPDATE  (cost=3.0 rows=2)  \
          (actual: rows=3 next=2 rows/call=1.5 batches=1 time=_ms io=0/0/0)";
         "    Filter SUPPLY.SHIPDATE < '1980-01-01'  (cost=3.0 rows=2)  \
          (actual: rows=3 next=2 rows/call=1.5 batches=1 time=_ms io=0/0/0)";
         "      Scan SUPPLY  (cost=3.0 rows=5)  (actual: rows=5 next=2 \
          rows/call=2.5 batches=1 time=_ms io=3/0/0)";
         "";
         "temp TEMP#3:";
         "  Project TEMP#1.PNUM, agg.COUNT_SHIPDATE  (cost=2.0 rows=2)  \
          (actual: rows=3 next=4 rows/call=0.8 time=_ms io=0/0/0)";
         "    GroupAgg by [TEMP#1.PNUM] computing [COUNT(TEMP#2.SHIPDATE) \
          AS COUNT_SHIPDATE]  (cost=2.0 rows=2)  (actual: rows=3 next=4 \
          rows/call=0.8 time=_ms io=0/0/0)";
         "      nested-loop left-outer join on TEMP#1.PNUM = TEMP#2.PNUM  \
          (cost=2.0 rows=4)  (actual: rows=4 next=2 rows/call=2.0 batches=1 \
          time=_ms io=4/0/0)";
         "        Scan TEMP#1  (cost=1.0 rows=3)  (actual: rows=3 next=3 \
          rows/call=1.0 batches=1 time=_ms io=0/0/0)";
         "        Scan TEMP#2  (cost=1.0 rows=3)  (actual: -)";
         "";
         "main:";
         "  Project PARTS.PNUM  (cost=2.0 rows=1)  (actual: rows=2 next=2 \
          rows/call=1.0 batches=1 time=_ms io=0/0/0)";
         "    nested-loop inner join on PARTS.QOH = TEMP#3.COUNT_SHIPDATE \
          AND PARTS.PNUM <=> TEMP#3.PNUM  (cost=2.0 rows=1)  (actual: \
          rows=2 next=2 rows/call=1.0 batches=1 time=_ms io=4/0/0)";
         "      Scan PARTS  (cost=1.0 rows=3)  (actual: rows=3 next=3 \
          rows/call=1.0 batches=1 time=_ms io=0/0/0)";
         "      Scan TEMP#3  (cost=1.0 rows=3)  (actual: -)";
         "";
       ]
    ^ certificate_3025)
    (scrub_times
       (Result.get_ok (Core.explain_query ~analyze:true db F.query_q2)))

let test_plain_explain_has_no_actuals () =
  let db = make_parts_db () in
  let text = Result.get_ok (Core.explain_query db F.query_q2) in
  Alcotest.(check bool) "no (actual:" true
    (not (Astring.String.is_infix ~affix:"(actual:" text));
  Alcotest.(check bool) "has (cost=" true
    (Astring.String.is_infix ~affix:"(cost=" text)

(* ---------------- exec-level properties -------------------------------- *)

(* Lower + execute one canonical query under instrumentation; return the
   plan, the session and the result. *)
let instrumented_run catalog text =
  let q = F.parse_analyzed catalog text in
  let plan = (Optimizer.Planner.lower catalog q).Optimizer.Planner.plan in
  let session = Exec.Explain.session (Catalog.pager catalog) in
  let result =
    Exec.Plan.run ~observe:(Exec.Explain.observer session) catalog plan
  in
  (plan, session, result)

let canonical_queries =
  [
    "SELECT PNUM FROM PARTS WHERE QOH > 20";
    "SELECT DISTINCT PNUM FROM SUPPLY";
    "SELECT PARTS.PNUM, SUPPLY.QUAN FROM PARTS, SUPPLY WHERE PARTS.PNUM = \
     SUPPLY.PNUM";
    "SELECT PNUM, COUNT(QUAN) FROM SUPPLY GROUP BY PNUM";
  ]

(* The tentpole invariant: for every operator root, ANALYZE's actual row
   count equals the cardinality of the rows the iterator produced. *)
let prop_root_rows =
  QCheck2.Test.make ~name:"analyze root rows = result cardinality" ~count:40
    (QCheck2.Gen.int_range 0 1_000_000) (fun seed ->
      let catalog =
        G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed
          ~n_parts:(5 + (seed mod 17))
          ~supply_per_part:(1 + (seed mod 6))
          ()
      in
      List.for_all
        (fun text ->
          let plan, session, result = instrumented_run catalog text in
          match Exec.Explain.metrics session plan with
          | None -> false
          | Some m -> m.Exec.Metrics.rows = Relation.cardinality result)
        canonical_queries)

(* Every instrumented operator: [next] is called at least once per row a
   row operator produces, or per batch a batch operator produces (plus the
   terminating None), and the estimator knows the root. *)
let prop_metric_sanity =
  QCheck2.Test.make ~name:"metrics/estimates sane on every operator"
    ~count:25
    (QCheck2.Gen.int_range 0 1_000_000) (fun seed ->
      let catalog =
        G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed ~n_parts:12
          ~supply_per_part:(1 + (seed mod 5))
          ()
      in
      List.for_all
        (fun text ->
          let plan, session, _ = instrumented_run catalog text in
          let est = (Optimizer.Estimate.root catalog plan).Optimizer.Estimate.cost in
          let rec ok node =
            (match Exec.Explain.metrics session node with
            | Some m ->
                (* a join may stop pulling a side before exhaustion, so
                   [next_calls] may equal the rows or batches produced;
                   fewer never is *)
                m.Exec.Metrics.next_calls
                >= (if m.Exec.Metrics.batches > 0 then m.Exec.Metrics.batches
                    else m.Exec.Metrics.rows)
                && m.Exec.Metrics.logical_reads >= 0
            | None -> true)
            && List.for_all ok (Exec.Plan.children node)
          in
          est > 0. && ok plan)
        canonical_queries)

(* Program-level: the actual row count printed for the main segment's root
   operator equals what running the query returns. *)
let test_analyze_matches_run () =
  let rows_of_run () =
    let db = make_parts_db () in
    Relation.cardinality (Result.get_ok (Core.query db F.query_q2))
  in
  let db = make_parts_db () in
  let text = Result.get_ok (Core.explain_query ~analyze:true db F.query_q2) in
  let main_at =
    Str.search_forward (Str.regexp_string "main:\n") text 0
  in
  let _ = Str.search_forward (Str.regexp "(actual: rows=\\([0-9]+\\)") text main_at in
  Alcotest.(check int) "main root actual rows" (rows_of_run ())
    (int_of_string (Str.matched_group 1 text))

(* ---------------- trace events ----------------------------------------- *)

let test_trace_events () =
  let db = make_parts_db () in
  let lines = ref [] in
  let _ =
    Result.get_ok
      (Core.explain_query ~analyze:true
         ~trace:(fun l -> lines := l :: !lines)
         db F.query_q2)
  in
  let lines = List.rev !lines in
  Alcotest.(check bool) "some events" true (List.length lines > 8);
  List.iter
    (fun l ->
      Alcotest.(check bool) ("json event: " ^ l) true
        (Astring.String.is_prefix ~affix:"{\"ev\":\"" l))
    lines;
  let count affix =
    List.length
      (List.filter (Astring.String.is_prefix ~affix) lines)
  in
  Alcotest.(check int) "one segment marker per segment" 4
    (count "{\"ev\":\"segment\"");
  Alcotest.(check int) "opens = closes" (count "{\"ev\":\"open\"")
    (count "{\"ev\":\"close\"")

let test_run_trace () =
  let db = make_parts_db () in
  let lines = ref [] in
  let _ =
    Result.get_ok
      (Core.run
         ~strategy:(Core.Transformed Optimizer.Planner.Auto)
         ~trace:(fun l -> lines := l :: !lines)
         db F.query_q2)
  in
  Alcotest.(check bool) "plan execution traced" true (!lines <> [])

let suites =
  [
    ( "explain.golden",
      [
        Alcotest.test_case "type-N" `Quick test_golden_type_n;
        Alcotest.test_case "type-J" `Quick test_golden_type_j;
        Alcotest.test_case "type-JA" `Quick test_golden_type_ja;
        Alcotest.test_case "type-JA analyze" `Quick test_golden_analyze_ja;
        Alcotest.test_case "plain has no actuals" `Quick
          test_plain_explain_has_no_actuals;
        Alcotest.test_case "analyze agrees with run" `Quick
          test_analyze_matches_run;
      ] );
    ( "explain.trace",
      [
        Alcotest.test_case "analyze trace events" `Quick test_trace_events;
        Alcotest.test_case "run --trace" `Quick test_run_trace;
      ] );
    ( "explain.properties",
      List.map QCheck_alcotest.to_alcotest [ prop_root_rows; prop_metric_sanity ]
    );
  ]

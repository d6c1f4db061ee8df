(* Index access paths under adversarial data: randomized equivalence of
   the B-tree operators against their index-free counterparts.

   - IndexScan (equality and range probes) must equal Filter∘Scan on the
     same predicate and deliver key order.
   - Index nested-loop join (an IndexScan re-opened per left row) must
     equal hash and sort-merge joins on the same equi-condition, inner and
     left outer.
   - The probe-based paged nested enumeration (Sysr_iteration) with a
     B-tree on every column must equal the in-memory oracle.

   Data is deliberately hostile: NULL-dense join columns (a B-tree stores
   no NULL keys — rows must be rejected by the predicate, not lost by the
   access path), duplicate-skewed keys (tiny key_range), and empty
   relations. *)

module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Value = Relalg.Value
module Catalog = Storage.Catalog
module G = Workload.Gen
module Plan = Exec.Plan
module F = Workload.Fixtures

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* A catalog whose SUPPLY is NULL-dense and duplicate-skewed (and
   sometimes empty), with a B-tree on the join column. *)
let supply_catalog rng =
  let n_supply = G.int_in rng 0 30 in
  let null_pct = G.int_in rng 0 40 in
  let key_range = G.int_in rng 1 4 in
  let catalog =
    G.parts_supply_catalog ~null_pct rng ~n_parts:(G.int_in rng 0 10)
      ~n_supply ~key_range
  in
  Catalog.create_index catalog "SUPPLY" ~column:"PNUM";
  catalog

let pcol c : Sql.Ast.col_ref = { table = Some "SUPPLY"; column = c }

(* --- IndexScan = Filter(Scan) --------------------------------------- *)

let bounds_and_pred rng v =
  let lit = Sql.Ast.Lit (Value.Int v) in
  let cmp op = Sql.Ast.Cmp (Sql.Ast.Col (pcol "PNUM"), op, lit) in
  match G.int_in rng 0 4 with
  | 0 -> ((Some (lit, true), Some (lit, true)), cmp Sql.Ast.Eq)
  | 1 -> ((None, Some (lit, false)), cmp Sql.Ast.Lt)
  | 2 -> ((None, Some (lit, true)), cmp Sql.Ast.Le)
  | 3 -> ((Some (lit, false), None), cmp Sql.Ast.Gt)
  | _ -> ((Some (lit, true), None), cmp Sql.Ast.Ge)

let key_ordered rel =
  let schema = Relation.schema rel in
  let k = Schema.find schema "PNUM" in
  let rec go = function
    | a :: (b :: _ as rest) ->
        (match (Relalg.Row.get a k, Relalg.Row.get b k) with
        | Value.Null, _ | _, Value.Null -> false (* NULL keys never stored *)
        | va, vb -> Value.compare va vb <= 0 && go rest)
    | _ -> true
  in
  go (Relation.rows rel)

let prop_index_scan =
  QCheck2.Test.make ~name:"IndexScan = Filter(Scan), key order"
    ~count:200 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let catalog = supply_catalog rng in
      let (lo, hi), pred = bounds_and_pred rng (G.int_in rng 0 5) in
      let indexed =
        Plan.Index_scan
          { table = "SUPPLY"; alias = "SUPPLY"; column = "PNUM"; lo; hi }
      in
      let plain = Plan.Filter ([ pred ], Plan.Scan "SUPPLY") in
      let a = Plan.run catalog indexed in
      let b = Plan.run catalog plain in
      Relation.equal_bag a b && key_ordered a)

(* --- index nested-loop join = hash = merge --------------------------- *)

let join kind method_ =
  (* sort-merge consumes key-ordered inputs (the planner inserts the
     Sorts); the index join re-opens an IndexScan bounded by the left
     row's key; the other methods take the bare scans *)
  let pnum = { Sql.Ast.table = Some "PARTS"; column = "PNUM" } in
  let cond = [ (pnum, Sql.Ast.Eq, pcol "PNUM") ] in
  let left, right, cond =
    match method_ with
    | Plan.Sort_merge ->
        ( Plan.Sort ([ pnum ], Plan.Scan "PARTS"),
          Plan.Sort ([ pcol "PNUM" ], Plan.Scan "SUPPLY"),
          cond )
    | Plan.Index_nl ->
        let key = Some (Sql.Ast.Col pnum, true) in
        ( Plan.Scan "PARTS",
          Plan.Index_scan
            {
              table = "SUPPLY";
              alias = "SUPPLY";
              column = "PNUM";
              lo = key;
              hi = key;
            },
          [] )
    | _ -> (Plan.Scan "PARTS", Plan.Scan "SUPPLY", cond)
  in
  Plan.Join { method_; kind; cond; residual = []; left; right }

(* Under a left outer join a NULL left key must pad, not probe. *)
let prop_index_join =
  QCheck2.Test.make
    ~name:"index NL join = hash = merge over NULL/dup/empty data" ~count:200
    QCheck2.Gen.(pair seed_gen (oneofl [ Plan.Inner; Plan.Left_outer ]))
    (fun (seed, kind) ->
      let rng = Random.State.make [| seed |] in
      let catalog = supply_catalog rng in
      let join = join kind in
      let inl = Plan.run catalog (join Plan.Index_nl) in
      let hash = Plan.run catalog (join Plan.Hash) in
      let merge = Plan.run catalog (join Plan.Sort_merge) in
      Relation.equal_bag inl hash && Relation.equal_bag inl merge)

(* --- probe-based nested enumeration = in-memory oracle --------------- *)

let index_everything catalog =
  List.iter
    (fun name ->
      match Catalog.lookup catalog name with
      | None -> ()
      | Some schema ->
          List.iter
            (fun (c : Schema.column) ->
              Catalog.create_index catalog name ~column:c.Schema.name)
            (Schema.columns schema))
    (Catalog.table_names catalog)

let prop_probed_enumeration =
  QCheck2.Test.make
    ~name:"Sysr probes (index on every column) = in-memory oracle" ~count:150
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let null_pct = G.int_in rng 0 30 in
      let catalog =
        G.parts_supply_catalog ~null_pct rng ~n_parts:(G.int_in rng 1 10)
          ~n_supply:(G.int_in rng 0 20) ~key_range:(G.int_in rng 1 6)
      in
      index_everything catalog;
      let text =
        (match G.int_in rng 0 3 with
        | 0 -> G.n_query
        | 1 -> G.a_query
        | 2 -> G.j_query
        | _ -> G.ja_query)
          rng
      in
      let q = F.parse_analyzed catalog text in
      let expected = Exec.Nested_iter.run catalog q in
      let got = Exec.Sysr_iteration.run catalog q in
      if Relation.equal_bag expected got then true
      else begin
        Fmt.epr "@.seed %d query %s@.oracle:@.%a@.probed:@.%a@." seed text
          Relation.pp expected Relation.pp got;
        false
      end)

(* --- Re-opened inner plans: no state leaks between bindings ---------- *)

(* Nested iteration compiles an inner plan once and re-opens it under
   every outer row.  Outer keys repeat, are NULL, or match no SUPPLY row
   (SUPPLY's keys stop at 4), so consecutive bindings alternate between
   full and empty probes; a B-tree on SUPPLY.PNUM is optional.  Each
   query runs twice through an instrumented
   [Plan.run]: its rows must equal the in-memory oracle's, bag for bag,
   and every correlated inner plan of the top block must be opened once
   per outer row (an uncorrelated one once in all). *)
let value_or_null rng ~null_pct v =
  if Random.State.int rng 100 < null_pct then Value.Null else Value.Int v

let reopen_db rng ~indexed =
  let db = Core.create_db ~buffer_pages:8 ~page_bytes:64 () in
  Core.define_table db "PARTS"
    [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
    (List.init (G.int_in rng 0 12) (fun _ ->
         [
           value_or_null rng ~null_pct:20 (G.int_in rng 1 6);
           Value.Int (G.int_in rng 0 3);
         ]));
  Core.define_table db "SUPPLY"
    [ ("PNUM", Value.Tint); ("QUAN", Value.Tint) ]
    (List.init (G.int_in rng 0 30) (fun _ ->
         [
           value_or_null rng ~null_pct:20 (G.int_in rng 1 4);
           value_or_null rng ~null_pct:10 (G.int_in rng 0 4);
         ]));
  if indexed then Core.create_index db "SUPPLY" ~column:"PNUM";
  db

let reopen_queries =
  List.map
    (fun where -> "SELECT PNUM, QOH FROM PARTS WHERE " ^ where)
    [
      "QOH = (SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
      "QOH < (SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
      "NOT EXISTS (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM \
       AND QUAN > 1)";
      "QOH IN (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
      "QOH >= ALL (SELECT QUAN FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
      "QOH IN (SELECT QUAN FROM SUPPLY) AND QOH >= (SELECT COUNT(*) FROM \
       SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)";
      "QOH > (SELECT COUNT(*) FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM)";
    ]

(* Run [q]'s nested-iteration plan instrumented; return the presented
   result and, for each subquery of the top block's [Apply], whether it
   is correlated and how often its inner plan was opened. *)
let run_nested catalog q =
  let plan = Exec.Sysr_iteration.lower catalog q in
  let session = Exec.Explain.session (Catalog.pager catalog) in
  let rel = Plan.run ~observe:(Exec.Explain.observer session) catalog plan in
  let rec top_apply (node : Plan.node) =
    match node with
    | Plan.Apply a -> Some a
    | n -> List.find_map top_apply (Plan.children n)
  in
  let loops node =
    Option.fold ~none:0
      ~some:(fun m -> m.Exec.Metrics.loops)
      (Exec.Explain.metrics session node)
  in
  let opens =
    match top_apply plan with
    | None -> []
    | Some a ->
        List.filter_map
          (fun (_, sp) ->
            Option.map
              (fun (sp : Plan.subplan) -> (sp.keys <> [], loops sp.inner))
              sp)
          a.preds
  in
  (Exec.Sysr_iteration.present catalog q rel, opens)

let prop_reopen_isolation =
  QCheck2.Test.make
    ~name:"re-opened inner plans = oracle, opened once per outer row"
    ~count:150 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db = reopen_db rng ~indexed:(Random.State.bool rng) in
      let catalog = Core.catalog db in
      let outer_rows = Catalog.tuples catalog "PARTS" in
      List.for_all
        (fun text ->
          let q = F.parse_analyzed catalog text in
          let expected = Exec.Nested_iter.run catalog q in
          List.for_all
            (fun _run ->
              let got, opens = run_nested catalog q in
              let loops_ok =
                List.for_all
                  (fun (correlated, loops) ->
                    loops = if correlated then outer_rows else min 1 outer_rows)
                  opens
              in
              let ok = Relation.equal_bag expected got && loops_ok in
              if not ok then
                Fmt.epr "@.seed %d query %s@.oracle:@.%a@.got:@.%a@.opens: %s@."
                  seed text Relation.pp expected Relation.pp got
                  (String.concat ", "
                     (List.map (fun (_, l) -> string_of_int l) opens));
              ok)
            [ 1; 2 ])
        reopen_queries)

(* The scalar aggregate of a re-opened COUNT: for a binding whose probe
   is empty — a NULL key, or a key SUPPLY lacks — it still emits its one
   row, COUNT = 0 (the COUNT bug's regime), so the outer rows with QOH = 0
   qualify exactly as the oracle says. *)
let test_reopened_count_on_empty_probes () =
  let db = Core.create_db ~buffer_pages:8 ~page_bytes:64 () in
  Core.define_table db "PARTS"
    [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
    (List.map
       (fun (k, qoh) -> [ k; Value.Int qoh ])
       [
         (Value.Int 1, 2); (Value.Int 9, 0); (Value.Null, 0); (Value.Int 1, 0);
         (Value.Int 2, 1); (Value.Int 9, 1);
       ]);
  Core.define_table db "SUPPLY"
    [ ("PNUM", Value.Tint); ("QUAN", Value.Tint) ]
    (List.map
       (fun (k, quan) -> [ Value.Int k; quan ])
       [
         (1, Value.Int 5); (1, Value.Null); (1, Value.Int 3); (2, Value.Int 7);
       ]);
  Core.create_index db "SUPPLY" ~column:"PNUM";
  let catalog = Core.catalog db in
  let q =
    F.parse_analyzed catalog
      "SELECT PNUM, QOH FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM \
       SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)"
  in
  let expected = Exec.Nested_iter.run catalog q in
  Alcotest.(check int) "oracle: the empty probes' rows and keys 1, 2" 4
    (Relation.cardinality expected);
  let got, opens = run_nested catalog q in
  Alcotest.(check bool) "bag-equal to the oracle" true
    (Relation.equal_bag expected got);
  Alcotest.(check (list (pair bool int))) "one open per outer row"
    [ (true, 6) ] opens

(* --- Auto on indexed data: the priced pick and the ladder contract ---- *)

(* nestbench's crossover shape: a 10k-row SUPPLY over keys 1-1000 (the
   first 1000 rows NULL-keyed, the others cycling), nullable QUAN, a
   B-tree on PNUM, a 256-page pool; outer tables of 16, 64 and 256 rows
   cycling over keys 1-128 (P256 holds each key twice) and one of 1024
   rows with every key once. *)
let crossover_db () =
  let db = Core.create_db ~buffer_pages:256 ~page_bytes:256 () in
  Core.define_table db "SUPPLY"
    [ ("PNUM", Value.Tint); ("QUAN", Value.Tint); ("SHIPDATE", Value.Tdate) ]
    (List.init 10_000 (fun i ->
         [
           (if i < 1000 then Value.Null else Value.Int (((i - 1000) mod 1000) + 1));
           (if i mod 10 = 7 then Value.Null else Value.Int (i * 7 mod 10));
           Value.Date
             { year = 1975 + (i mod 10); month = 1 + (i mod 12); day = 1 };
         ]));
  List.iter
    (fun (name, rows, keys) ->
      Core.define_table db name
        [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
        (List.init rows (fun i ->
             [ Value.Int ((i mod keys) + 1); Value.Int (i mod 5) ])))
    [ ("P16", 16, 128); ("P64", 64, 128); ("P256", 256, 128); ("P1024", 1024, 1024) ];
  Core.create_index db "SUPPLY" ~column:"PNUM";
  db

let count_query t =
  Printf.sprintf
    "SELECT PNUM FROM %s WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY WHERE \
     SUPPLY.PNUM = %s.PNUM AND SHIPDATE < '1-1-77')"
    t t

let not_exists_query t =
  Printf.sprintf
    "SELECT PNUM FROM %s WHERE NOT EXISTS (SELECT PNUM FROM SUPPLY WHERE \
     SUPPLY.PNUM = %s.PNUM AND SHIPDATE < '1-1-77')"
    t t

(* QUAN is nullable, so the >= ALL rewrite refuses *)
let ge_all_query t =
  Printf.sprintf
    "SELECT PNUM FROM %s WHERE QOH >= ALL (SELECT QUAN FROM SUPPLY WHERE \
     SUPPLY.PNUM = %s.PNUM AND QUAN >= 5)"
    t t

let via =
  Alcotest.testable
    (fun ppf v -> Fmt.string ppf (Core.via_name v))
    ( = )

let auto_via db sql =
  match Core.run db sql with
  | Ok e -> e.Core.via
  | Error msg -> Alcotest.failf "%s: %s" sql msg

(* A keyed TEMP2 makes the probes nested iteration makes, plus its temps;
   a repeated key is probed once by both; a large all-distinct outer
   amortizes the transformed program's full read of SUPPLY. *)
let test_crossover_picks () =
  let db = crossover_db () in
  List.iter
    (fun (sql, expected) -> Alcotest.check via sql expected (auto_via db sql))
    (List.concat_map
       (fun t ->
         [ (count_query t, Core.Via_nested); (not_exists_query t, Core.Via_nested) ])
       [ "P16"; "P64"; "P256" ]
    @ [
        (ge_all_query "P256", Core.Via_nested);
        (count_query "P1024", Core.Via_transformed);
        (not_exists_query "P1024", Core.Via_transformed);
      ]);
  Alcotest.(check bool) ">= ALL is refused" true
    (Result.is_error (Core.transform db (ge_all_query "P256")))

(* Auto's ladder rebuilt from the public calls nestbench's traced run
   makes: nested iteration when [indexed_nested_choice] says so; else the
   transformed program when it transforms and verifies; else batched when
   [prefer_batched] says so and batching runs; else nested iteration. *)
let rebuilt_via db (q : Sql.Ast.query) =
  let catalog = Core.catalog db in
  let fallback () =
    if not (Optimizer.Estimate.prefer_batched catalog q) then Core.Via_nested
    else
      match Optimizer.Batched_nest.run catalog q with
      | _ -> Core.Via_batched
      | exception
          (Optimizer.Batched_nest.Unsupported _
          | Optimizer.Planner.Planning_error _) ->
          Core.Via_nested
  in
  if Core.indexed_nested_choice db q <> None then Core.Via_nested
  else
    match Lazy.force (Core.prepare_query db q).Core.program with
    | Error _ -> fallback ()
    | Ok program ->
        if
          List.exists
            (fun (d : Analysis.Diagnostics.t) ->
              d.severity = Analysis.Diagnostics.Error)
            (Optimizer.Planner.verify_program catalog program)
        then fallback ()
        else Core.Via_transformed

(* The pick EXPLAIN names in its [auto:] header line. *)
let explained_via text =
  let header = List.hd (String.split_on_char '\n' text) in
  match Astring.String.cut ~sep:" — " header with
  | Some ("auto: indexed nested iteration (untransformed)", _)
  | Some ("auto: nested iteration", _) ->
      Core.Via_nested
  | Some ("auto: transformed", _) -> Core.Via_transformed
  | Some ("auto: batched", _) -> Core.Via_batched
  | _ -> Alcotest.failf "no auto: header in EXPLAIN:\n%s" text

(* Three readings of one Auto decision must agree: the ladder rebuilt from
   the public calls, the pick [Core.run] executes, and the pick EXPLAIN's
   header names.  EXPLAIN succeeds exactly when run does. *)
let check_ladder ~label db sql =
  match Core.parse db sql with
  | Error _ -> ()
  | Ok q -> (
      let name = label ^ ": " ^ sql in
      let explained = Core.explain_query db sql in
      match Core.run db sql with
      | Error msg ->
          if Result.is_ok explained then
            Alcotest.failf "%s: EXPLAIN succeeds, run refuses: %s" name msg
      | Ok e -> (
          Alcotest.check via (name ^ " (rebuilt ladder)") (rebuilt_via db q)
            e.Core.via;
          match explained with
          | Ok text ->
              Alcotest.check via (name ^ " (EXPLAIN)") e.Core.via
                (explained_via text)
          | Error msg ->
              Alcotest.failf "%s: run succeeds, EXPLAIN refuses: %s" name msg))

(* [check_ladder] on a fresh database from [make_db], then on another with a
   B-tree on every column a correlation predicate compares. *)
let check_ladder_indexed ~label make_db sql =
  let db = make_db () in
  check_ladder ~label:(label ^ " unindexed") db sql;
  match Core.parse db sql with
  | Error _ -> ()
  | Ok q ->
      let columns = Suite_cost_goldens.correlated_columns q in
      if columns <> [] then begin
        let db = make_db () in
        List.iter (fun (rel, column) -> Core.create_index db rel ~column) columns;
        check_ladder ~label:(label ^ " indexed") db sql
      end

(* NOT IN over NULL-free columns: the guarded COUNT rewrite applies, so
   Auto prices it against indexed nested iteration, and EXPLAIN must
   explain the same pick the run makes. *)
let not_in_query =
  "SELECT PNUM FROM PARTS WHERE QOH NOT IN (SELECT QUAN FROM SUPPLY WHERE \
   SUPPLY.PNUM = PARTS.PNUM)"

let test_ladder_contract () =
  let indexed = crossover_db () in
  let unindexed = Core.create_db ~buffer_pages:256 ~page_bytes:256 () in
  List.iter
    (fun name -> Fixtures.define_fixture unindexed name (Core.table indexed name))
    [ "SUPPLY"; "P16"; "P256" ];
  List.iter
    (fun t ->
      List.iter
        (fun query ->
          check_ladder ~label:"indexed" indexed (query t);
          check_ladder ~label:"unindexed" unindexed (query t))
        [ count_query; not_exists_query; ge_all_query ])
    [ "P16"; "P256" ];
  (* the crossover golden's database, whose Auto header prices nested first *)
  let golden = Suite_cost_goldens.crossover_db () in
  check_ladder ~label:"crossover golden" golden Fixtures.count_bug_query;
  check_ladder_indexed ~label:"crossover golden"
    (fun () ->
      let db = Core.create_db ~buffer_pages:16 ~page_bytes:256 () in
      List.iter
        (fun name -> Fixtures.define_fixture db name (Core.table golden name))
        [ "PARTS"; "SUPPLY" ];
      db)
    Fixtures.count_bug_query;
  check_ladder_indexed ~label:"NOT IN" (fun () -> Fixtures.count_bug_db ())
    not_in_query;
  let sql_files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sql")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  in
  List.iter
    (fun path ->
      let src = In_channel.with_open_bin path In_channel.input_all in
      let fixture = Option.get (Suite_cost_goldens.fixture_pragma src) in
      List.iter
        (fun raw ->
          check_ladder_indexed ~label:path
            (fun () -> Suite_cost_goldens.fixture_db fixture)
            (Sql.Pp.query_to_string raw))
        (Sql.Parser.parse_many_exn src))
    (sql_files Suite_cost_goldens.corpus_dir);
  List.iter
    (fun path ->
      let case = Oracle.Repro.load path in
      check_ladder_indexed ~label:path
        (fun () -> Oracle.Repro.build_db case)
        case.Oracle.Repro.sql)
    (sql_files (Filename.concat Suite_cost_goldens.corpus_dir "regressions"));
  let rng = Random.State.make [| 42 |] in
  for i = 1 to 100 do
    let case = Oracle.Gen.case rng in
    check_ladder_indexed
      ~label:(Printf.sprintf "seed 42 case %d" i)
      (fun () -> Oracle.Repro.build_db case)
      case.Oracle.Repro.sql
  done

let suites =
  [
    ( "index.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_index_scan;
          prop_index_join;
          prop_probed_enumeration;
          prop_reopen_isolation;
        ] );
    ( "index.reopen",
      [
        Alcotest.test_case "re-opened COUNT on empty probes" `Quick
          test_reopened_count_on_empty_probes;
      ] );
    ( "index.auto",
      [
        Alcotest.test_case "crossover picks on repeated and distinct outers"
          `Quick test_crossover_picks;
        Alcotest.test_case
          "ladder contract: Core.run = rebuilt ladder = EXPLAIN's header"
          `Quick
          test_ladder_contract;
      ] );
  ]

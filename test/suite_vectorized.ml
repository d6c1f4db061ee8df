(* Tuple-vs-vectorized engine equivalence.

   The vectorized engine must be observationally identical to the tuple
   engine on every plan: same rows, same multiset, on NULL-dense and empty
   inputs and exactly at batch boundaries (sizes 1, k*max_rows ± 1).  Operator
   shapes are exercised two ways: direct physical plans through
   [Plan.run] / [Plan.run_vec] (scans, filters, projections, the hash
   operators, joins with residuals), and whole transformed programs through
   [Planner.run_program ~engine] sweeping planner mode and forced join
   method, which routes the sort/merge/NL operators through the tuple
   adapters. *)

module Value = Relalg.Value
module Row = Relalg.Row
module Schema = Relalg.Schema
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module Pager = Storage.Pager
module Plan = Exec.Plan
module Vec = Exec.Vec
module Batch = Exec.Batch
module Iterator = Exec.Iterator
module Planner = Optimizer.Planner
module A = Sql.Ast
module G = Workload.Gen
module F = Workload.Fixtures

let col ?table column = { A.table; A.column }

(* Run one plan under both engines against a fresh catalog each time (page
   and statistics state must not leak between the two executions). *)
let engines_agree ~make_catalog plan =
  let tuple = Plan.run (make_catalog ()) plan in
  let vec = Plan.run_vec (make_catalog ()) plan in
  if Relation.equal_bag tuple vec then true
  else begin
    Fmt.epr "@.engine mismatch on %s@.tuple:@.%a@.vectorized:@.%a@."
      (Plan.to_string plan) Relation.pp tuple Relation.pp vec;
    false
  end

(* ---------------- randomized plan-level properties -------------------- *)

(* NULL-dense, duplicate-heavy keyed inputs: the same generator the
   physical-operator suite uses ([Workload.Gen.keyed_relation]), small key
   ranges forcing many-to-many joins, ~20% NULL keys and payloads. *)
let random_tables rng =
  let key_range = G.int_in rng 1 5 in
  let l =
    G.keyed_relation rng ~rel:"L" ~n:(G.int_in rng 0 60) ~key_range
      ~null_pct:20
  in
  let r =
    G.keyed_relation rng ~rel:"R" ~n:(G.int_in rng 0 60) ~key_range
      ~null_pct:20
  in
  (l, r)

let trial_of_plan make_plan seed =
  let rng = Random.State.make [| seed |] in
  let l, r = random_tables rng in
  let plan = make_plan rng in
  engines_agree plan ~make_catalog:(fun () ->
      G.catalog_of [ ("L", l); ("R", r) ])

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let prop name ~count make_plan =
  QCheck2.Test.make ~name ~count seed_gen (trial_of_plan make_plan)

let lk = col ~table:"L" "K"
let lv = col ~table:"L" "V"
let rk = col ~table:"R" "K"
let rv = col ~table:"R" "V"

let any_cmp rng =
  G.pick rng [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge; A.Eq_null ]

let prop_filter =
  prop "filter: col-lit and col-col, every operator" ~count:150 (fun rng ->
      let preds =
        [
          A.Cmp (A.Col lk, any_cmp rng, A.Lit (Value.Int (G.int_in rng 1 5)));
          A.Cmp (A.Col lk, any_cmp rng, A.Col lv);
        ]
      in
      Plan.Filter (preds, Plan.Scan "L"))

let prop_project =
  prop "project: reorder + duplicate column" ~count:80 (fun _rng ->
      Plan.Project ([ lv; lk; lv ], Plan.Scan "L"))

let prop_hash_distinct =
  prop "hash distinct = tuple distinct semantics" ~count:120 (fun rng ->
      let cols = G.pick rng [ [ lk ]; [ lk; lv ] ] in
      Plan.Hash_distinct (Plan.Project (cols, Plan.Scan "L")))

let prop_hash_join =
  prop "hash join: inner/outer, null-safe keys, residual" ~count:200
    (fun rng ->
      let kind = G.pick rng [ Plan.Inner; Plan.Left_outer ] in
      let key_cmp = G.pick rng [ A.Eq; A.Eq_null ] in
      let residual =
        if G.int_in rng 0 1 = 0 then []
        else [ A.Cmp (A.Col lv, A.Lt, A.Col rv) ]
      in
      Plan.Join
        {
          method_ = Plan.Hash;
          kind;
          cond = [ (lk, key_cmp, rk) ];
          residual;
          left = Plan.Scan "L";
          right = Plan.Scan "R";
        })

let prop_hash_group_agg =
  prop "hash group/agg: all aggregates over NULL-dense input" ~count:150
    (fun rng ->
      let aggs =
        [
          { Plan.fn = A.Count_star; out_name = "CSTAR" };
          { Plan.fn = A.Count lv; out_name = "CV" };
          { Plan.fn = A.Sum lv; out_name = "SV" };
          { Plan.fn = A.Min lv; out_name = "MNV" };
          { Plan.fn = A.Max lv; out_name = "MXV" };
          { Plan.fn = A.Avg lv; out_name = "AV" };
        ]
      in
      let group_by = G.pick rng [ [ lk ]; [] ] in
      Plan.Hash_group_agg { Plan.group_by; aggs; input = Plan.Scan "L" })

(* ---------------- randomized program-level property ------------------- *)

(* Whole transformed programs under every planner mode and forced join
   method: the non-hash cells route sorts, merge and NL joins through the
   tuple adapters inside the vectorized pipeline. *)
let run_engine catalog program ~force ~mode engine =
  let result =
    Fixtures.run_verified ~force ~mode ~engine catalog program
  in
  Planner.drop_temps catalog program;
  result

let trial_program seed =
  let rng = Random.State.make [| seed |] in
  let n_parts = G.int_in rng 1 12 in
  let n_supply = G.int_in rng 0 25 in
  let key_range = G.int_in rng 1 8 in
  let catalog =
    G.parts_supply_catalog rng ~null_pct:15 ~n_parts ~n_supply ~key_range
  in
  let text =
    (G.pick rng [ G.n_query; G.a_query; G.j_query; G.ja_query ]) rng
  in
  let force =
    G.pick rng
      [ Planner.Auto; Planner.Force_nl; Planner.Force_merge;
        Planner.Force_hash ]
  in
  let mode = G.pick rng [ Planner.Paper1987; Planner.Hybrid ] in
  let q = F.parse_analyzed catalog text in
  match
    Optimizer.Nest_g.transform
      ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
      q
  with
  | exception Optimizer.Nest_g.Unsupported _
  | exception Optimizer.Ja_shape.Not_ja _
  | exception Optimizer.Nest_n_j.Not_applicable _ ->
      true (* not transformable: nothing to compare *)
  | program -> (
      match run_engine catalog program ~force ~mode Plan.Tuple with
      | exception Planner.Planning_error _ -> true (* engine-independent *)
      | tuple ->
          let vec = run_engine catalog program ~force ~mode Plan.Vectorized in
          if Relation.equal_bag tuple vec then true
          else begin
            Fmt.epr "@.seed %d query %s@.tuple:@.%a@.vectorized:@.%a@." seed
              text Relation.pp tuple Relation.pp vec;
            false
          end)

let prop_programs =
  QCheck2.Test.make
    ~name:"transformed programs: tuple = vectorized (mode x force sweep)"
    ~count:150 seed_gen trial_program

(* ---------------- batch-boundary goldens ------------------------------ *)

(* Exact sizes around the batch-capacity boundary: 0, 1, and k*max_rows ± 1
   for k = 1, 2 — derived from [Batch.max_rows] so the tests keep probing
   the boundary if the vector size is retuned.  Deterministic data so
   expected cardinalities are arithmetic, not oracle output. *)
let m = Batch.max_rows
let boundary_sizes = [ 0; 1; m - 1; m; m + 1; (2 * m) - 1; 2 * m; (2 * m) + 1 ]

let boundary_relation n =
  Relation.of_values ~rel:"T"
    [ ("K", Value.Tint); ("V", Value.Tint) ]
    (List.init n (fun i ->
         [
           (if i mod 11 = 0 then Value.Null else Value.Int (i mod 7));
           Value.Int i;
         ]))

let with_boundary_catalog n f =
  f (fun () -> G.catalog_of [ ("T", boundary_relation n) ])

let tk = col ~table:"T" "K"
let tv = col ~table:"T" "V"

let test_boundary_scan_filter () =
  List.iter
    (fun n ->
      with_boundary_catalog n (fun make_catalog ->
          let plan =
            Plan.Filter
              ( [ A.Cmp (A.Col tv, A.Lt, A.Lit (Value.Int (n - 1))) ],
                Plan.Scan "T" )
          in
          let vec = Plan.run_vec (make_catalog ()) plan in
          Alcotest.(check int)
            (Printf.sprintf "filter cardinality at n=%d" n)
            (max 0 (n - 1))
            (Relation.cardinality vec);
          Alcotest.(check bool)
            (Printf.sprintf "filter agrees at n=%d" n)
            true
            (Relation.equal_bag (Plan.run (make_catalog ()) plan) vec)))
    boundary_sizes

let test_boundary_group_agg () =
  List.iter
    (fun n ->
      with_boundary_catalog n (fun make_catalog ->
          let plan =
            Plan.Hash_group_agg
              {
                Plan.group_by = [ tk ];
                aggs =
                  [
                    { Plan.fn = A.Count_star; out_name = "C" };
                    { Plan.fn = A.Sum tv; out_name = "S" };
                  ];
                input = Plan.Scan "T";
              }
          in
          let tuple = Plan.run (make_catalog ()) plan in
          let vec = Plan.run_vec (make_catalog ()) plan in
          (* distinct keys: NULL (i mod 11 = 0, when n > 0) plus i mod 7
             values present among non-multiples of 11 *)
          Alcotest.(check bool)
            (Printf.sprintf "group agg agrees at n=%d" n)
            true
            (Relation.equal_bag tuple vec)))
    boundary_sizes

let test_boundary_hash_join () =
  List.iter
    (fun n ->
      with_boundary_catalog n (fun make_catalog ->
          let plan =
            Plan.Join
              {
                method_ = Plan.Hash;
                kind = Plan.Left_outer;
                cond = [ (tk, A.Eq, tk) ];
                residual = [];
                left = Plan.Scan "T";
                right = Plan.Rename ("T2", Plan.Scan "T");
              }
          in
          (* self-join needs distinct provenance on one side *)
          let plan =
            match plan with
            | Plan.Join j ->
                Plan.Join
                  {
                    j with
                    cond = [ (tk, A.Eq, col ~table:"T2" "K") ];
                  }
            | p -> p
          in
          let tuple = Plan.run (make_catalog ()) plan in
          let vec = Plan.run_vec (make_catalog ()) plan in
          Alcotest.(check bool)
            (Printf.sprintf "outer hash self-join agrees at n=%d" n)
            true
            (Relation.equal_bag tuple vec)))
    [ 0; 1; m - 1; m; m + 1 ]

(* ---------------- adapters and batches -------------------------------- *)

let test_adapter_round_trip () =
  List.iter
    (fun n ->
      let rel = boundary_relation n in
      let rows =
        Vec.to_rows (Vec.of_tuple (Iterator.of_relation rel))
      in
      Alcotest.(check int)
        (Printf.sprintf "row count preserved at n=%d" n)
        n (List.length rows);
      Alcotest.(check bool)
        (Printf.sprintf "order preserved at n=%d" n)
        true
        (List.for_all2 (fun a b -> Row.compare a b = 0) (Relation.rows rel)
           rows))
    [ 0; 1; m; m + 1; (2 * m) + 1 ]

let test_batch_of_rows_round_trip () =
  (* mixed representations: an Ints column, a demoted (NULL-dense) column,
     and a boxed string column survive the round trip exactly *)
  let schema =
    Schema.of_columns ~rel:"M"
      [ ("A", Value.Tint); ("B", Value.Tint); ("C", Value.Tstr) ]
  in
  let rows =
    List.init 100 (fun i ->
        Row.of_list
          [
            Value.Int i;
            (if i mod 3 = 0 then Value.Null else Value.Int (-i));
            (if i mod 5 = 0 then Value.Null else Value.Str (string_of_int i));
          ])
  in
  let b = Batch.of_rows schema (Array.of_list rows) in
  Alcotest.(check int) "live rows" 100 (Batch.live b);
  Alcotest.(check bool) "round trip" true
    (List.for_all2 (fun a b -> Row.compare a b = 0) rows (Batch.to_rows b))

let test_scan_batches_match_pages () =
  (* a stored table scans into full batches: rows/call near max_rows *)
  let n = 2500 in
  let catalog = G.catalog_of [ ("T", boundary_relation n) ] in
  let v = Vec.scan (Catalog.heap catalog "T") in
  let batches = ref 0 and rows = ref 0 in
  let rec drain () =
    match v.Vec.next_batch () with
    | Some b ->
        incr batches;
        rows := !rows + Batch.live b;
        Alcotest.(check bool) "batch within bound" true
          (Batch.live b <= Batch.max_rows);
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all rows scanned" n !rows;
  Alcotest.(check bool) "batches amortize calls" true
    (!batches <= (n / Batch.max_rows) + 2)

(* ---------------- EXPLAIN ANALYZE surface ------------------------------ *)

let define_fixture db =
  Fixtures.define_fixture db "PARTS" F.kiessling_parts;
  Fixtures.define_fixture db "SUPPLY" F.kiessling_supply

let count_bug_query = Fixtures.count_bug_query

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_analyze_vectorized_metrics () =
  let db = Core.create_db () in
  define_fixture db;
  let text =
    match
      Core.explain_query ~analyze:true ~engine:Plan.Vectorized db
        count_bug_query
    with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "reports batches" true (contains ~needle:"batches=" text);
  Alcotest.(check bool) "reports rows/call" true
    (contains ~needle:"rows/call=" text)

let test_analyze_tuple_has_no_batches () =
  let db = Core.create_db () in
  define_fixture db;
  let text =
    match Core.explain_query ~analyze:true db count_bug_query with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  (* tuple operators never produce batches; the field stays hidden *)
  Alcotest.(check bool) "no batches field" false
    (contains ~needle:"batches=" text);
  Alcotest.(check bool) "still reports rows/call" true
    (contains ~needle:"rows/call=" text)

let test_core_run_engines_agree () =
  let run engine =
    let db = Core.create_db () in
    define_fixture db;
    match Core.run ~engine db count_bug_query with
    | Ok e -> e.Core.result
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "count-bug query agrees across engines" true
    (Relation.equal_bag (run Plan.Tuple) (run Plan.Vectorized))

(* ---------------- registration ----------------------------------------- *)

let qtests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_filter;
      prop_project;
      prop_hash_distinct;
      prop_hash_join;
      prop_hash_group_agg;
      prop_programs;
    ]

let suites =
  [
    ( "vectorized.equivalence",
      qtests
      @ [
          Alcotest.test_case "batch boundaries: scan+filter" `Quick
            test_boundary_scan_filter;
          Alcotest.test_case "batch boundaries: group/agg" `Quick
            test_boundary_group_agg;
          Alcotest.test_case "batch boundaries: outer hash self-join" `Quick
            test_boundary_hash_join;
        ] );
    ( "vectorized.batches",
      [
        Alcotest.test_case "tuple adapter round trip" `Quick
          test_adapter_round_trip;
        Alcotest.test_case "of_rows/to_rows round trip" `Quick
          test_batch_of_rows_round_trip;
        Alcotest.test_case "scan fills page-sized batches" `Quick
          test_scan_batches_match_pages;
      ] );
    ( "vectorized.surface",
      [
        Alcotest.test_case "EXPLAIN ANALYZE --engine vectorized" `Quick
          test_analyze_vectorized_metrics;
        Alcotest.test_case "EXPLAIN ANALYZE tuple hides batches" `Quick
          test_analyze_tuple_has_no_batches;
        Alcotest.test_case "Core.run engines agree" `Quick
          test_core_run_engines_agree;
      ] );
  ]

(* NEST-JA2's keyed TEMP2 and per-statement scratch files.

   - Keyed TEMP2: with a [probe_keys] oracle that always accepts, every
     eligible COUNT block builds TEMP2 by joining TEMP1's keys with the
     inner relation.  Core's cost rule never fires on fuzz-sized tables,
     so the property forces the path and checks the program against the
     reference evaluator on the oracle's data profiles, in both planner
     modes, with a B-tree on every column.
   - Goldens: the keyed Q2 program text, its index-nested-loop plan and
     EXPLAIN note, the paper's TEMP2 wherever the keyed form must not
     apply, and the checkers' verdicts on the keyed program.
   - Scratch files: statements that sort or materialize a nested-loop
     inner leave the pager's file and page counts where they found them. *)

module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Value = Relalg.Value
module Catalog = Storage.Catalog
module Pager = Storage.Pager
module G = Workload.Gen
module F = Workload.Fixtures
open Optimizer

let always (_ : Program.key_probe) = Some "forced"

let fresh_counter () =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "TEMP%d" !n

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let index_everything db =
  let catalog = Core.catalog db in
  List.iter
    (fun name ->
      match Catalog.lookup catalog name with
      | None -> ()
      | Some schema ->
          List.iter
            (fun (c : Schema.column) -> Core.create_index db name ~column:c.name)
            (Schema.columns schema))
    (Catalog.table_names catalog)

(* --- the property: forced keyed TEMP2 = reference ------------------ *)

(* COUNT-star, COUNT(col), NOT EXISTS and a two-column [=] correlation —
   every one eligible for the keyed TEMP2 — plus the oracle's whole query
   pool, where most blocks are not. *)
let keyed_query rng =
  let inner_filter =
    if Random.State.bool rng then " AND SHIPDATE < '1-1-80'" else ""
  in
  let outer_filter = if Random.State.bool rng then "PNUM > 1 AND " else "" in
  let op0 = G.pick rng [ "="; "<"; ">=" ] in
  match G.int_in rng 0 4 with
  | 0 ->
      ( true,
        Printf.sprintf
          "SELECT PNUM FROM PARTS WHERE %sQOH %s (SELECT COUNT(*) FROM SUPPLY \
           WHERE SUPPLY.PNUM = PARTS.PNUM%s)"
          outer_filter op0 inner_filter )
  | 1 ->
      ( true,
        Printf.sprintf
          "SELECT PNUM FROM PARTS WHERE %sQOH %s (SELECT COUNT(%s) FROM SUPPLY \
           WHERE SUPPLY.PNUM = PARTS.PNUM%s)"
          outer_filter op0
          (G.pick rng [ "SHIPDATE"; "QUAN"; "PNUM" ])
          inner_filter )
  | 2 ->
      ( true,
        Printf.sprintf
          "SELECT PNUM FROM PARTS WHERE %sNOT EXISTS (SELECT * FROM SUPPLY \
           WHERE SUPPLY.PNUM = PARTS.PNUM%s)"
          outer_filter inner_filter )
  | 3 ->
      ( true,
        Printf.sprintf
          "SELECT PNUM FROM PARTS WHERE %sQOH %s (SELECT COUNT(*) FROM SUPPLY \
           WHERE SUPPLY.PNUM = PARTS.PNUM AND SUPPLY.QUAN = PARTS.QOH%s)"
          outer_filter op0 inner_filter )
  | _ -> (false, Oracle.Gen.query rng)

let modes = [ Planner.Paper1987; Planner.Hybrid ]

let prop_keyed_matches_reference =
  QCheck2.Test.make
    ~name:"forced keyed TEMP2 = Nested_iter, both modes, B-tree everywhere"
    ~count:300 (QCheck2.Gen.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let eligible, sql = keyed_query rng in
      let case = { (Oracle.Gen.case rng) with Oracle.Repro.sql } in
      let db = Oracle.Repro.build_db case in
      index_everything db;
      let catalog = Core.catalog db in
      let q = Result.get_ok (Core.parse db sql) in
      match Exec.Nested_iter.run catalog q with
      | exception Exec.Nested_iter.Runtime_error _ -> true
      | reference -> (
          let reference = Exec.Presentation.apply_order q reference in
          match
            Nest_g.transform ~probe_keys:always
              ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
              q
          with
          | exception Program.Refused _ ->
              not eligible
          | program ->
              let keyed = program.Program.notes <> [] in
              let agree mode =
                let checked =
                  Planner.check_segments ~mode catalog (Planner.Program program)
                in
                if
                  List.exists
                    (fun (_, _, diags) -> Analysis.Diagnostics.has_errors diags)
                    checked
                then Alcotest.failf "seed %d: a plan failed its check" seed;
                let got = Fixtures.run_verified ~mode catalog program in
                Planner.drop_temps catalog program;
                let got = Exec.Presentation.apply_order q got in
                Oracle.Matrix.results_agree ~q ~reference ~got
                ||
                (Fmt.epr "@.seed %d: %s@.%s@.expected:@.%a@.got:@.%a@." seed
                   sql
                   (Program.to_string program)
                   Relation.pp reference Relation.pp got;
                 false)
              in
              ((not eligible) || keyed) && List.for_all agree modes))

(* --- goldens -------------------------------------------------------- *)

let q2_pred catalog text =
  let q = F.parse_analyzed catalog text in
  (q, List.find Sql.Ast.predicate_has_subquery q.Sql.Ast.where)

let count_bug_catalog () =
  let db = Fixtures.count_bug_db () in
  Core.create_index db "SUPPLY" ~column:"PNUM";
  Core.catalog db

let temp2_def (r : Nest_ja2.result) =
  match r.temps with
  | [ _; temp2; _ ] -> temp2.Program.def
  | _ -> Alcotest.fail "expected TEMP1, TEMP2, TEMP3"

let test_keyed_q2_golden () =
  let catalog = count_bug_catalog () in
  let q, pred = q2_pred catalog Fixtures.count_bug_query in
  let r = Nest_ja2.transform q pred ~fresh:(fresh_counter ()) ~probe_keys:always () in
  Alcotest.(check string)
    "keyed program"
    "TEMP1 (PNUM) :=\n\
    \  SELECT DISTINCT PARTS.PNUM FROM PARTS;\n\n\
     TEMP2 (PNUM, SHIPDATE) :=\n\
    \  SELECT SUPPLY.PNUM, SUPPLY.SHIPDATE\n\
    \  FROM TEMP1, SUPPLY\n\
    \  WHERE SUPPLY.SHIPDATE < '1980-01-01'\n\
    \  AND SUPPLY.PNUM = TEMP1.PNUM;\n\n\
     TEMP3 (PNUM, COUNT_SHIPDATE) :=\n\
    \  SELECT TEMP1.PNUM, COUNT(TEMP2.SHIPDATE)\n\
    \  FROM TEMP1, TEMP2\n\
    \  WHERE TEMP1.PNUM =+ TEMP2.PNUM\n\
    \  GROUP BY TEMP1.PNUM;\n\n\
     SELECT PARTS.PNUM\n\
     FROM PARTS, TEMP3\n\
     WHERE PARTS.QOH = TEMP3.COUNT_SHIPDATE\n\
     AND PARTS.PNUM <=> TEMP3.PNUM;"
    (Program.to_string
       { Program.temps = r.temps; main = r.rewritten; notes = []; probes = [] });
  Alcotest.(check (option string))
    "note" (Some "NEST-JA2: TEMP2 probes SUPPLY.PNUM with TEMP1's keys (forced)")
    r.probe_note

(* The paper's TEMP2 — the inner relation restricted by the local
   predicates alone — wherever the keyed form must not apply, even with
   an oracle that always accepts. *)
let test_paper_temp2_kept () =
  let catalog = count_bug_catalog () in
  let paper_temp2 =
    "SELECT SUPPLY.PNUM, SUPPLY.SHIPDATE\n\
     FROM SUPPLY\n\
     WHERE SUPPLY.SHIPDATE < '1980-01-01'"
  in
  let check label text ~project_outer ~probe_keys expected =
    let q, pred = q2_pred catalog text in
    let r =
      Nest_ja2.transform q pred ~fresh:(fresh_counter ()) ~project_outer
        ?probe_keys ()
    in
    Alcotest.(check string) label expected
      (Sql.Pp.query_to_string (temp2_def r));
    Alcotest.(check (option string)) (label ^ ": no note") None r.probe_note
  in
  check "no oracle" Fixtures.count_bug_query ~project_outer:true
    ~probe_keys:None paper_temp2;
  check "project_outer:false" Fixtures.count_bug_query ~project_outer:false
    ~probe_keys:(Some always) paper_temp2;
  check "< correlation"
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
     WHERE SUPPLY.PNUM < PARTS.PNUM AND SHIPDATE < '1-1-80')"
    ~project_outer:true ~probe_keys:(Some always) paper_temp2;
  (* Core's rule: no B-tree, no keyed TEMP2 *)
  let db = Fixtures.count_bug_db () in
  let program = Result.get_ok (Core.transform db Fixtures.count_bug_query) in
  Alcotest.(check (list string)) "no index: no notes" [] program.Program.notes

(* A database where Core's rule fires: 4 outer keys × a low B-tree against
   a SUPPLY of a few dozen 256-byte pages. *)
let probed_db () =
  let db = Core.create_db ~buffer_pages:16 ~page_bytes:256 () in
  Core.define_table db "PARTS"
    [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
    (List.init 4 (fun i -> [ Value.Int (i + 1); Value.Int (i mod 3) ]));
  Core.define_table db "SUPPLY"
    [ ("PNUM", Value.Tint); ("QUAN", Value.Tint); ("SHIPDATE", Value.Tdate) ]
    (List.init 400 (fun i ->
         [
           Value.Int ((i mod 40) + 1);
           Value.Int (i mod 7);
           Value.Date { year = 1975 + (i mod 10); month = 1; day = 1 };
         ]));
  Core.create_index db "SUPPLY" ~column:"PNUM";
  db

let test_core_rule_and_plan () =
  let db = probed_db () in
  let catalog = Core.catalog db in
  let kp =
    {
      Program.outer_rel = "PARTS";
      outer_cols = [ "PNUM" ];
      inner_rel = "SUPPLY";
      inner_col = "PNUM";
    }
  in
  let k = Option.get (Estimate.keyed_temp2 catalog kp) in
  Alcotest.(check (float 0.)) "keys" 4. k.Estimate.kt_keys;
  Alcotest.(check (float 0.))
    "pages" (float_of_int (Catalog.pages catalog "SUPPLY")) k.kt_pages;
  Alcotest.(check bool) "unindexed column" true
    (Estimate.keyed_temp2 catalog { kp with inner_col = "QUAN" } = None);
  let steps = ref [] in
  let program =
    Result.get_ok
      (Core.transform ~on_step:(fun s -> steps := s :: !steps) db
         Fixtures.count_bug_query)
  in
  let note =
    match program.Program.notes with
    | [ n ] -> n
    | _ -> Alcotest.fail "expected one note"
  in
  Alcotest.(check bool) "note names the probe" true
    (contains ~sub:"probes SUPPLY.PNUM with" note
    && contains ~sub:(Estimate.describe_keyed_temp2 k) note);
  Alcotest.(check bool) "on_step line" true (List.mem note !steps);
  (* the transformed program's EXPLAIN: Auto runs nested iteration here,
     whose probes the keyed TEMP2 repeats *)
  match
    Core.explain_query ~strategy:(Core.Transformed Planner.Auto) db
      Fixtures.count_bug_query
  with
  | Error e -> Alcotest.fail e
  | Ok text ->
      (* EXPLAIN transforms afresh, so its temp names differ *)
      let first = List.hd (String.split_on_char '\n' text) in
      Alcotest.(check bool) "EXPLAIN opens with the note" true
        (contains ~sub:"NEST-JA2: " first
        && contains ~sub:"probes SUPPLY.PNUM with" first
        && contains ~sub:(Estimate.describe_keyed_temp2 k) first);
      (* the second "temp" segment is TEMP2's *)
      let temp2_plan =
        match Str.split (Str.regexp "^temp ") text with
        | [ _note; _temp1; temp2; _temp3_and_main ] -> temp2
        | _ -> Alcotest.fail ("unexpected EXPLAIN layout:\n" ^ text)
      in
      Alcotest.(check bool) "TEMP2 is an index-nested-loop join" true
        (contains ~sub:"index-nested-loop" temp2_plan)

let test_keyed_program_checks () =
  let db = probed_db () in
  let catalog = Core.catalog db in
  let q = Result.get_ok (Core.parse db Fixtures.count_bug_query) in
  let program =
    Result.get_ok (Core.transform db Fixtures.count_bug_query)
  in
  Alcotest.(check bool) "keyed" true (program.Program.notes <> []);
  Alcotest.(check int) "Rewrite_verifier silent" 0
    (List.length (Planner.verify_program catalog program));
  Alcotest.(check int) "Plan_check silent" 0
    (List.length
       (List.concat_map
          (fun (_, _, diags) -> diags)
          (Planner.check_segments catalog (Planner.Program program))));
  let temps =
    List.map (fun { Program.name; def } -> (name, def)) program.Program.temps
  in
  match
    Analysis.Equiv_check.check ~bound:2 ~lookup:(Catalog.lookup catalog) ~temps
      ~main:program.Program.main q
  with
  | Analysis.Equiv_check.Equivalent { bound = 2; _ } -> ()
  | v ->
      Alcotest.fail
        ("keyed Q2 not certified: " ^ Analysis.Equiv_check.certificate v)

(* --- scratch files -------------------------------------------------- *)

let test_statement_scratch_released () =
  let db = Fixtures.count_bug_db () in
  let pager = Catalog.pager (Core.catalog db) in
  let baseline () = (Pager.file_count pager, Pager.disk_pages pager) in
  let before = baseline () in
  let statements =
    [
      (* sort-merge: both join inputs and the GROUP BY input are sorted *)
      ( Core.Transformed Planner.Force_merge,
        Fixtures.count_bug_query );
      (* nested loop over a filtered, hence materialized, inner *)
      ( Core.Transformed Planner.Force_nl,
        "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
         SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80')" );
      (Core.Auto, Fixtures.max_quan_query);
    ]
  in
  for _ = 1 to 100 do
    List.iter
      (fun (strategy, sql) ->
        match Core.run ~strategy db sql with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
      statements
  done;
  Alcotest.(check (pair int int)) "after 300 statements" before (baseline ());
  for _ = 1 to 10 do
    match Core.explain_query ~analyze:true db Fixtures.count_bug_query with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  done;
  Alcotest.(check (pair int int)) "after 10 EXPLAIN ANALYZE" before (baseline ())

(* --- Auto prices the statement's own program ---------------------- *)

(* A priced Auto statement is transformed once: pricing forces the
   prepared program, Auto's estimate of the transformed rung is that
   program's bound (its recorded keyed-TEMP2 probe included), and a second
   execution draws no new TEMP# names.  Here Auto picks nested iteration,
   so nothing but pricing forces the program. *)
let test_priced_program_transformed_once () =
  let db = probed_db () in
  let catalog = Core.catalog db in
  let p = Result.get_ok (Core.prepare db Fixtures.count_bug_query) in
  let run () = Result.get_ok (Core.run_prepared ~strategy:Core.Auto db p) in
  let e = run () in
  Alcotest.(check bool) "Auto runs nested" true (e.Core.via = Core.Via_nested);
  Alcotest.(check bool) "pricing forced the program" true
    (Lazy.is_val p.Core.program);
  let program = Result.get_ok (Lazy.force p.Core.program) in
  Alcotest.(check int) "the keyed TEMP2's probe is recorded" 1
    (List.length program.Program.probes);
  (match e.Core.decision with
  | Some { Core.candidates = Some c; _ } ->
      Alcotest.(check (option (float 0.)))
        "estimate of the transformed rung"
        (Some
           (Estimate.transformed_bound
              ~pipelined:(Planner.pipelined Planner.Paper1987 program)
              catalog p.Core.query program))
        c.Core.est_transformed
  | _ -> Alcotest.fail "no priced decision");
  ignore (run ());
  Alcotest.(check string) "one transformation's temp names, run twice"
    (Printf.sprintf "TEMP#%d" (List.length program.Program.temps + 1))
    (Catalog.fresh_temp_name catalog)

let suites =
  [
    ( "keyed-ja2",
      [
        Alcotest.test_case "keyed Q2 golden" `Quick test_keyed_q2_golden;
        Alcotest.test_case "paper TEMP2 where keys must not apply" `Quick
          test_paper_temp2_kept;
        Alcotest.test_case "Core rule, note and index-NL plan" `Quick
          test_core_rule_and_plan;
        Alcotest.test_case "keyed Q2 verified and certified at k=2" `Quick
          test_keyed_program_checks;
        Alcotest.test_case "statement scratch files released" `Quick
          test_statement_scratch_released;
      ]
      @ List.map QCheck_alcotest.to_alcotest [ prop_keyed_matches_reference ]
      @ [
          Alcotest.test_case "a priced Auto statement is transformed once"
            `Quick test_priced_program_transformed_once;
        ] );
  ]

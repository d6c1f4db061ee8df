(* Cost goldens: the numbers the planner, EXPLAIN's estimator and Auto's
   pricers produce, pinned byte for byte.

   Each golden is a text file under test/golden/.  A mismatch writes the
   actual text next to the build copy (test/golden/NAME.actual under
   _build/default) and fails; copying that file over the expected one
   accepts a deliberate change.

   - an IndexScan plan and an index-nested-loop plan (the keyed NEST-JA2
     TEMP2, whose note heads the EXPLAIN), in both planner modes;
   - Auto's crossover header, with every candidate's estimate, on a
     database where indexed nested iteration is priced cheapest;
   - the keyed-TEMP2 note on its own;
   - EXPLAIN over every examples/queries/*.sql file, in both modes, with
     no index and with a B-tree on every column a correlation predicate
     compares. *)

module Value = Relalg.Value
module Catalog = Storage.Catalog
open Sql.Ast

let golden_dir = "golden"

let check_golden name actual =
  let path = Filename.concat golden_dir (name ^ ".expected") in
  let expected =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
    else ""
  in
  if not (String.equal expected actual) then begin
    let out = Filename.concat golden_dir (name ^ ".actual") in
    Out_channel.with_open_bin out (fun oc -> output_string oc actual);
    Alcotest.failf "%s differs from %s; actual text written to %s" name path
      out
  end

let modes = Optimizer.Planner.[ Paper1987; Hybrid ]

let explain_all_modes db sql =
  String.concat ""
    (List.map
       (fun mode ->
         Fmt.str "== mode %s\n%s\n"
           (Optimizer.Planner.mode_name mode)
           (match Core.explain_query ~mode db sql with
           | Ok text -> text
           | Error msg -> "error: " ^ msg))
       modes)

(* ---------------- indexed plans ---------------------------------------- *)

(* SUPPLY.PNUM = 7 selects 10 of 400 rows: the B-tree slice undercuts the
   scan, so SUPPLY's access path is an IndexScan — alone, under a residual
   filter, and as a range probe. *)
let index_scan_queries =
  List.map
    (fun restriction ->
      "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY WHERE "
      ^ restriction ^ ")")
    [ "SUPPLY.PNUM = 7"; "SUPPLY.PNUM = 7 AND QUAN > 2"; "SUPPLY.PNUM < 2" ]

let test_index_scan () =
  check_golden "index_scan"
    (String.concat ""
       (List.map
          (explain_all_modes (Suite_keyed_ja2.probed_db ()))
          index_scan_queries))

(* Q2 over the same database: its TEMP2 joins TEMP1's four keys with
   SUPPLY through the B-tree. *)
let test_index_nl () =
  check_golden "index_nl"
    (explain_all_modes (Suite_keyed_ja2.probed_db ()) Fixtures.count_bug_query)

let test_keyed_temp2_note () =
  let program =
    Result.get_ok
      (Core.transform (Suite_keyed_ja2.probed_db ()) Fixtures.count_bug_query)
  in
  check_golden "keyed_temp2_note"
    (String.concat "" (List.map (fun n -> n ^ "\n") program.Optimizer.Program.notes))

(* Four PARTS rows probing a 2000-row SUPPLY (five rows per key): indexed
   nested iteration costs a few dozen page I/Os, and the keyed TEMP2 of
   the transformed program makes the same probes plus its temps. *)
let crossover_db () =
  let db = Core.create_db ~buffer_pages:16 ~page_bytes:256 () in
  Core.define_table db "PARTS"
    [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
    (List.init 4 (fun i -> [ Value.Int (i + 1); Value.Int (i mod 3) ]));
  Core.define_table db "SUPPLY"
    [ ("PNUM", Value.Tint); ("QUAN", Value.Tint); ("SHIPDATE", Value.Tdate) ]
    (List.init 2000 (fun i ->
         [
           Value.Int ((i mod 400) + 1);
           Value.Int (i mod 7);
           Value.Date { year = 1975 + (i mod 10); month = 1; day = 1 };
         ]));
  Core.create_index db "SUPPLY" ~column:"PNUM";
  db

let test_crossover () =
  check_golden "crossover"
    (explain_all_modes (crossover_db ()) Fixtures.count_bug_query)

(* ---------------- the example corpus ----------------------------------- *)

let corpus_dir = "../examples/queries"

let fixture_pragma src =
  let prefix = "-- fixture:" in
  List.find_map
    (fun line ->
      let line = String.trim line in
      if String.starts_with ~prefix line then
        Some
          (String.trim
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix)))
      else None)
    (String.split_on_char '\n' src)

let fixture_db name =
  let db = Core.create_db ~buffer_pages:8 ~page_bytes:64 () in
  let module F = Workload.Fixtures in
  let tables =
    match name with
    | "kim" -> [ ("S", F.suppliers); ("P", F.parts); ("SP", F.shipments) ]
    | "count-bug" -> [ ("PARTS", F.kiessling_parts); ("SUPPLY", F.kiessling_supply) ]
    | "neq-bug" -> [ ("PARTS", F.neq_parts); ("SUPPLY", F.neq_supply) ]
    | "duplicates" -> [ ("PARTS", F.dup_parts); ("SUPPLY", F.dup_supply) ]
    | other -> Alcotest.failf "unknown fixture %s" other
  in
  List.iter (fun (n, rel) -> Fixtures.define_fixture db n rel) tables;
  db

(* (relation, column) for both sides of every column-to-column WHERE
   comparison in a subquery that reaches an enclosing block's alias. *)
let correlated_columns (q : query) =
  let rels = Hashtbl.create 8 in
  let rec collect_from (q : query) =
    List.iter (fun f -> Hashtbl.replace rels (from_alias f) f.rel) q.from;
    List.iter collect_from (subqueries q)
  in
  collect_from q;
  let rec go (q : query) =
    List.concat_map
      (fun (sub : query) ->
        let local = List.map from_alias sub.from in
        let outer (c : col_ref) =
          match c.table with Some t -> not (List.mem t local) | None -> false
        in
        List.concat_map
          (function
            | Cmp (Col a, _, Col b) when outer a || outer b -> [ a; b ]
            | _ -> [])
          sub.where
        @ go sub)
      (subqueries q)
  in
  List.filter_map
    (fun (c : col_ref) ->
      Option.map
        (fun t -> (Hashtbl.find rels t, c.column))
        c.table)
    (go q)
  |> List.sort_uniq compare

let corpus_text () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sql")
    |> List.sort String.compare
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun file ->
      let src =
        In_channel.with_open_bin (Filename.concat corpus_dir file)
          In_channel.input_all
      in
      let fixture = Option.get (fixture_pragma src) in
      let queries = Sql.Parser.parse_many_exn src in
      List.iteri
        (fun i raw ->
          let sql = Sql.Pp.query_to_string raw in
          let columns =
            match Core.parse (fixture_db fixture) sql with
            | Ok q -> correlated_columns q
            | Error _ -> []
          in
          List.iter
            (fun indexed ->
              List.iter
                (fun mode ->
                  let db = fixture_db fixture in
                  if indexed then
                    List.iter
                      (fun (rel, column) -> Core.create_index db rel ~column)
                      columns;
                  Buffer.add_string buf
                    (Fmt.str "=== %s #%d mode=%s index=%s\n%s\n" file (i + 1)
                       (Optimizer.Planner.mode_name mode)
                       (if indexed then
                          String.concat ","
                            (List.map (fun (r, c) -> r ^ "." ^ c) columns)
                        else "none")
                       sql);
                  Buffer.add_string buf
                    (match Core.explain_query ~mode db sql with
                    | Ok text -> text ^ "\n"
                    | Error msg -> "error: " ^ msg ^ "\n"))
                modes)
            (if columns = [] then [ false ] else [ false; true ]))
        queries)
    files;
  Buffer.contents buf

let test_corpus () = check_golden "explain_corpus" (corpus_text ())

let suites =
  [
    ( "cost.goldens",
      [
        Alcotest.test_case "IndexScan EXPLAIN, both modes" `Quick
          test_index_scan;
        Alcotest.test_case "index-nested-loop EXPLAIN, both modes" `Quick
          test_index_nl;
        Alcotest.test_case "keyed-TEMP2 note" `Quick test_keyed_temp2_note;
        Alcotest.test_case "Auto crossover header" `Quick test_crossover;
        Alcotest.test_case "EXPLAIN over the example corpus" `Quick
          test_corpus;
      ] );
  ]

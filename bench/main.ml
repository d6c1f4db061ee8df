(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index E1-E8), prints paper-vs-ours
   tables, and runs bechamel micro-benchmarks of the two strategies.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig1    # one section
     dune exec bench/main.exe -- --compare BASE.json NEW.json
       # exits 1 unless rows, page I/O, Auto's picks and estimates agree
   Sections: fig1 sec74 bugs figure2 sweep ext timing *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module Pager = Storage.Pager
module F = Workload.Fixtures
module G = Workload.Gen
open Optimizer

(* ---------------- small table printer --------------------------------- *)

let print_table ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width i =
    List.fold_left (fun w row -> max w (String.length (List.nth row i))) 0 all
  in
  let widths = List.init ncols width in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=');
  let line row = String.concat "  " (List.map2 pad row widths) in
  Fmt.pr "%s@.%s@." (line header)
    (line (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Fmt.pr "%s@." (line row)) rows

let f0 x = Printf.sprintf "%.0f" x
let f1 x = Printf.sprintf "%.1f" x

let ints rel name =
  List.filter_map
    (function Value.Int i -> Some i | _ -> None)
    (Relation.column_values rel name)
  |> List.sort compare

let show_ints rel name =
  "{" ^ String.concat ", " (List.map string_of_int (ints rel name)) ^ "}"

(* ---------------- E1: Figure 1 ---------------------------------------- *)

(* Figure 1 summarizes three of Kim's worked examples.  The type-JA row's
   parameters are given in the paper's section 7.4 (Pi=50, Pj=30, f.Ni=100);
   the type-N and type-J parameters are reconstructed from the printed
   costs (EXPERIMENTS.md records the derivations).  Kim's arithmetic uses
   ceilinged log_(B-1) terms. *)
let fig1 () =
  let r = Cost.Ceil in
  let n_nested = Cost.nested_iteration ~pi:20. ~pj:100. ~fi_ni:102. in
  let n_merge =
    Cost.nest_nj_merge ~rounding:r ~sort_outer:false ~b:6 ~pi:20. ~pj:100. ()
  in
  let j_nested = Cost.nested_iteration ~pi:25. ~pj:75. ~fi_ni:135. in
  let j_merge =
    Cost.nest_nj_merge ~rounding:r ~sort_outer:false ~b:6 ~pi:25. ~pj:75. ()
  in
  let ja_nested = Cost.nested_iteration ~pi:50. ~pj:30. ~fi_ni:100. in
  let ja_kim = Cost.kim_nest_ja ~rounding:r ~b:6 ~pi:50. ~pj:30. ~pt:5. () in
  print_table
    ~title:
      "E1 / Figure 1: page I/Os, nested iteration vs transformation + merge \
       join"
    ~header:
      [ "query"; "paper nested"; "model nested"; "paper transf.";
        "model transf."; "savings" ]
    [
      [ "type-N"; "10220"; f0 n_nested; "720"; f0 n_merge;
        Printf.sprintf "%.0f%%" (100. *. (1. -. (n_merge /. n_nested))) ];
      [ "type-J"; "10120"; f0 j_nested; "550"; f0 j_merge;
        Printf.sprintf "%.0f%%" (100. *. (1. -. (j_merge /. j_nested))) ];
      [ "type-JA"; "3050"; f0 ja_nested; "615"; f0 ja_kim;
        Printf.sprintf "%.0f%%" (100. *. (1. -. (ja_kim /. ja_nested))) ];
    ];
  Fmt.pr
    "(type-N/J parameters reconstructed from the printed costs; type-JA \
     parameters from sec. 7.4.@.The type-J nested and type-JA transformed \
     cells differ from the paper by 0.3%% / 7%% --@.Kim's full example \
     parameters are in [KIM 82], not reprinted in this paper.  See \
     EXPERIMENTS.md.)@."

(* ---------------- E2: the 7.4 worked example --------------------------- *)

let sec74 () =
  let p =
    {
      Cost.pi = 50.; pj = 30.; pt2 = 7.; pt3 = 10.; pt4 = 8.; pt = 5.;
      b = 6; fi_ni = 100.; nt2 = 100.;
    }
  in
  let nested = Cost.nested_iteration ~pi:p.pi ~pj:p.pj ~fi_ni:p.fi_ni in
  let rows =
    List.map
      (fun s ->
        [ s.Cost.temp_method; s.Cost.final_method; f1 s.Cost.cost;
          Printf.sprintf "%.0f%%" (100. *. (1. -. (s.Cost.cost /. nested))) ])
      (Cost.ja2_strategies p)
  in
  print_table
    ~title:
      "E2 / sec. 7.4: NEST-JA2 strategy costs (Pi=50 Pj=30 Pt2=7 Pt3=10 \
       Pt4=8 Pt=5 B=6 f.Ni=100)"
    ~header:[ "temp join"; "final join"; "page I/Os"; "savings vs nested" ]
    (rows
    @ [
        [ "(nested iteration)"; "-"; f0 nested; "-" ];
        [ "(paper: two merge joins)"; "-"; "about 475"; "-" ];
      ]);
  Fmt.pr "closed-form all-merge total: %.1f (paper prints \"about 475\")@."
    (Cost.ja2_total_merge p)

(* ---------------- E3-E5: the bug tables -------------------------------- *)

let fresh_counter prefix =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s%d" prefix !n

(* The programs this harness runs with [Planner.run_program]: NEST-G's for
   [q], its temps named from [catalog]'s counter, or — given [temps] —
   those temps (NEST-JA2's or Kim's NEST-JA alone) with [q] as the main
   query. *)
let program ?temps catalog q =
  match temps with
  | Some temps -> { Program.temps; main = q; notes = []; probes = [] }
  | None ->
      Nest_g.transform ~fresh:(fun () -> Catalog.fresh_temp_name catalog) q

let run_and_drop catalog program =
  let result = Planner.run_program catalog program in
  Planner.drop_temps catalog program;
  result

let run_kim_ja catalog q =
  let pred = List.hd q.Sql.Ast.where in
  let temp, rewritten = Nest_ja.transform q pred ~temp_name:"KIMTEMP" in
  run_and_drop catalog (program ~temps:[ temp ] catalog rewritten)

let run_ja2 catalog q =
  let pred = List.hd q.Sql.Ast.where in
  let { Nest_ja2.temps; rewritten; _ } =
    Nest_ja2.transform q pred ~fresh:(fresh_counter "JA2T") ()
  in
  run_and_drop catalog (program ~temps catalog rewritten)

let bugs () =
  let scenario variant query =
    let catalog = F.parts_supply_catalog variant in
    let q = F.parse_analyzed catalog query in
    let reference = Exec.Nested_iter.run catalog q in
    let kim = run_kim_ja catalog q in
    let ja2 = run_ja2 catalog q in
    ( show_ints reference "PNUM",
      show_ints kim "PNUM",
      show_ints ja2 "PNUM",
      Relation.equal_set reference kim,
      Relation.equal_bag reference ja2 )
  in
  let row name variant query =
    let reference, kim, ja2, kim_ok, ja2_ok = scenario variant query in
    [ name; reference;
      kim ^ (if kim_ok then "" else " (WRONG)");
      ja2 ^ (if ja2_ok then " (ok)" else " (WRONG)") ]
  in
  print_table
    ~title:
      "E3-E5 / sec. 5: Kim's NEST-JA bugs vs NEST-JA2 (results of PNUM \
       queries)"
    ~header:[ "scenario"; "nested iteration"; "Kim NEST-JA"; "NEST-JA2" ]
    [
      row "E3 COUNT bug (Q2)" F.Count_bug F.query_q2;
      row "E4 non-equality (Q5)" F.Neq_bug F.query_q5;
      row "E5 duplicates (Q2)" F.Duplicates F.query_q2;
      row "COUNT(*) variant" F.Count_bug F.query_q2_count_star;
    ];
  (* The paper reports its outer-join solution "has been tested successfully
     on queries with more than a single level of nesting, including
     Kiessling's query Q3": a Q3-style two-level COUNT query, all three
     datasets. *)
  let q3_style =
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY      WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80' AND QUAN =      (SELECT MAX(QUAN) FROM SUPPLY X WHERE X.PNUM = SUPPLY.PNUM))"
  in
  let rows =
    List.map
      (fun (label, variant) ->
        let catalog = F.parts_supply_catalog variant in
        let q = F.parse_analyzed catalog q3_style in
        let reference = Exec.Nested_iter.run catalog q in
        let got = Planner.run_program catalog (program catalog q) in
        [ label; show_ints reference "PNUM"; show_ints got "PNUM";
          string_of_bool (Relation.equal_bag reference got) ])
      [ ("kiessling data", F.Count_bug); ("sec. 5.3 data", F.Neq_bug);
        ("duplicates data", F.Duplicates) ]
  in
  print_table
    ~title:
      "Multi-level COUNT (Q3-style, two NEST-JA2 applications): NEST-G vs nested iteration"
    ~header:[ "dataset"; "nested iteration"; "transformed"; "agree" ] rows

(* ---------------- E6: Figure 2 ----------------------------------------- *)

let figure2 () =
  let catalog = F.parts_supply_catalog F.Count_bug in
  let text =
    "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN) FROM SUPPLY WHERE \
     SUPPLY.QUAN IN (SELECT QUAN FROM SUPPLY C WHERE C.SHIPDATE IN (SELECT \
     SHIPDATE FROM SUPPLY E WHERE E.PNUM = PARTS.PNUM)))"
  in
  let q = F.parse_analyzed catalog text in
  let program = program catalog q in
  let reference = Exec.Nested_iter.run catalog q in
  let result = run_and_drop catalog program in
  print_table ~title:"E6 / Figure 2: recursive NEST-G on a 4-block query tree"
    ~header:[ "metric"; "value" ]
    [
      [ "nesting depth"; string_of_int (Sql.Ast.nesting_depth q) ];
      [ "temp tables created";
        string_of_int (List.length program.Program.temps) ];
      [ "canonical"; string_of_bool (Program.is_fully_canonical program) ];
      [ "nested iteration result"; show_ints reference "PNUM" ];
      [ "transformed result"; show_ints result "PNUM" ];
      [ "agree"; string_of_bool (Relation.equal_set reference result) ];
    ]

(* ---------------- E7: measured page-I/O sweeps -------------------------- *)

let sweep_queries =
  [
    ( "type-N",
      "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY WHERE \
       QUAN >= 3)" );
    ( "type-J",
      "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
       SUPPLY.PNUM = PARTS.PNUM)" );
    ( "type-JA",
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM \
       SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '1-1-80')" );
  ]

(* The perf grid's queries: the sweep's, plus the paper's Q5 (MAX under
   a '<' correlation) with its outer block cut to PNUM <= 3, as nestbench's
   JA-max-lt cuts it — the grid cells whose TEMP2 is a nested-loop join:
   over the whole of SUPPLY, and over SUPPLY restricted to QUAN <= 2 (the
   nestbench statement itself), a filtered nested-loop inner. *)
let grid_queries =
  sweep_queries
  @ [
      ( "type-JA-lt",
        "SELECT PNUM FROM PARTS WHERE PNUM <= 3 AND QOH = (SELECT MAX(QUAN) \
         FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM)" );
      ( "type-JA-max-lt",
        "SELECT PNUM FROM PARTS WHERE PNUM <= 3 AND QOH = (SELECT MAX(QUAN) \
         FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM AND QUAN <= 2)" );
    ]

let measure_io catalog run =
  let pager = Catalog.pager catalog in
  let before = Pager.snapshot pager in
  let result = run () in
  (result, Pager.total_io (Pager.diff_since pager before))

let sweep () =
  List.iter
    (fun (kind, text) ->
      let rows =
        List.map
          (fun supply_per_part ->
            let fresh_catalog () =
              G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed:42
                ~n_parts:40 ~supply_per_part ()
            in
            let c1 = fresh_catalog () in
            let q1 = F.parse_analyzed c1 text in
            let reference, nested_io =
              measure_io c1 (fun () -> Exec.Sysr_iteration.run c1 q1)
            in
            let c2 = fresh_catalog () in
            let q2 = F.parse_analyzed c2 text in
            let transformed, trans_io =
              measure_io c2 (fun () -> Planner.run_program c2 (program c2 q2))
            in
            let agree = Relation.equal_set reference transformed in
            let supply_pages = Catalog.pages c2 "SUPPLY" in
            [
              string_of_int supply_per_part;
              string_of_int supply_pages;
              string_of_int nested_io;
              string_of_int trans_io;
              Printf.sprintf "%.0f%%"
                (100.
                *. (1. -. (float_of_int trans_io /. float_of_int nested_io)));
              string_of_bool agree;
            ])
          [ 2; 4; 8; 16; 32 ]
      in
      print_table
        ~title:
          (Printf.sprintf
             "E7 / measured page I/O sweep (%s; 40 parts, B=8 pages of 128B)"
             kind)
        ~header:
          [ "supply/part"; "SUPPLY pages"; "nested I/O"; "transformed I/O";
            "savings"; "agree" ]
        rows)
    sweep_queries

(* ---------------- E8: the extensions ----------------------------------- *)

let ext () =
  let cases =
    [
      ("EXISTS",
       "SELECT SNAME FROM S WHERE EXISTS (SELECT SNO FROM SP WHERE SP.SNO = \
        S.SNO)");
      ("NOT EXISTS",
       "SELECT SNAME FROM S WHERE NOT EXISTS (SELECT SNO FROM SP WHERE \
        SP.SNO = S.SNO)");
      ("< ANY", "SELECT PNO FROM P WHERE WEIGHT < ANY (SELECT QTY FROM SP)");
      (">= ALL",
       "SELECT PNO FROM P WHERE WEIGHT >= ALL (SELECT WEIGHT FROM P)");
      ("= ANY", "SELECT SNO FROM S WHERE SNO = ANY (SELECT SNO FROM SP)");
      ("> ANY correlated",
       "SELECT PNO FROM P WHERE WEIGHT > ANY (SELECT WEIGHT FROM P X WHERE \
        X.CITY = P.CITY)");
    ]
  in
  let rows =
    List.map
      (fun (name, text) ->
        let c1 = F.kim_catalog () in
        let q = F.parse_analyzed c1 text in
        let reference, nested_io =
          measure_io c1 (fun () -> Exec.Sysr_iteration.run c1 q)
        in
        let c2 = F.kim_catalog () in
        let q2 = F.parse_analyzed c2 text in
        let transformed, trans_io =
          measure_io c2 (fun () -> Planner.run_program c2 (program c2 q2))
        in
        [
          name;
          string_of_int (Relation.cardinality reference);
          string_of_bool (Relation.equal_set reference transformed);
          string_of_int nested_io;
          string_of_int trans_io;
        ])
      cases
  in
  print_table
    ~title:"E8 / sec. 8 extensions: EXISTS / NOT EXISTS / ANY / ALL"
    ~header:[ "predicate"; "rows"; "agree"; "nested I/O"; "transformed I/O" ]
    rows

(* ---------------- ablations -------------------------------------------- *)

(* Measured counterpart of E2: the same transformed JA program executed
   with forced join methods.  The cost model's ordering (merge beats nested
   loops once relations outgrow the pool) should reproduce in measured
   page I/O. *)
let strategies () =
  let text = List.assoc "type-JA" sweep_queries in
  let rows =
    List.map
      (fun (label, force) ->
        let catalog =
          G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed:42
            ~n_parts:40 ~supply_per_part:16 ()
        in
        let program = program catalog (F.parse_analyzed catalog text) in
        let result, io =
          measure_io catalog (fun () -> Planner.run_program ~force catalog program)
        in
        [ label; string_of_int io; string_of_int (Relation.cardinality result) ])
      [
        ("forced nested-loop", Planner.Force_nl);
        ("forced sort-merge", Planner.Force_merge);
        ("forced hash (beyond the paper)", Planner.Force_hash);
        ("cost-based (auto, 1987 methods)", Planner.Auto);
      ]
  in
  print_table
    ~title:
      "Ablation / join methods: measured I/O of the transformed JA pipeline (40 parts x 16, B=8)"
    ~header:[ "join method"; "total page I/O"; "rows" ] rows

(* Buffer-size sensitivity: nested iteration collapses to cheap once the
   inner relation fits in the pool; the transformation's sort costs shrink
   with B too, but gently. *)
let buffers () =
  let text = List.assoc "type-JA" sweep_queries in
  let rows =
    List.map
      (fun b ->
        let run strategy =
          let catalog =
            G.scaled_catalog ~buffer_pages:b ~page_bytes:128 ~seed:42
              ~n_parts:40 ~supply_per_part:8 ()
          in
          let q = F.parse_analyzed catalog text in
          match strategy with
          | `Nested ->
              snd (measure_io catalog (fun () -> Exec.Sysr_iteration.run catalog q))
          | `Transformed ->
              snd
                (measure_io catalog (fun () ->
                     Planner.run_program catalog (program catalog q)))
        in
        let nested = run `Nested and transformed = run `Transformed in
        let savings =
          if nested = 0 then "n/a (all cached)"
          else
            Printf.sprintf "%.0f%%"
              (100.
              *. (1. -. (float_of_int transformed /. float_of_int nested)))
        in
        [ string_of_int b; string_of_int nested; string_of_int transformed;
          savings ])
      [ 4; 8; 16; 32; 64; 128 ]
  in
  print_table
    ~title:
      "Ablation / buffer size B: type-JA, 40 parts x 8 supply (SUPPLY = 64 pages)"
    ~header:[ "B (pages)"; "nested I/O"; "transformed I/O"; "savings" ] rows

(* Index access path: with a dense index on SUPPLY.PNUM, the planner can
   probe instead of scanning or sorting — the "indices on the join columns"
   of §5.2.  Compare the transformed JA pipeline across access paths. *)
let indexes () =
  List.iter
    (fun kind ->
      let text = List.assoc kind sweep_queries in
      let rows =
        List.map
          (fun (label, with_index, force) ->
            let catalog =
              G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed:42
                ~n_parts:10 ~supply_per_part:64 ()
            in
            if with_index then
              Catalog.create_index catalog "SUPPLY" ~column:"PNUM";
            let program = program catalog (F.parse_analyzed catalog text) in
            let result, io =
              measure_io catalog (fun () ->
                  Planner.run_program ~force catalog program)
            in
            [ label; string_of_int io;
              string_of_int (Relation.cardinality result) ])
          [
            ("no index, cost-based", false, Planner.Auto);
            ("index on SUPPLY.PNUM, cost-based", true, Planner.Auto);
            ("index available, forced merge", true, Planner.Force_merge);
          ]
      in
      print_table
        ~title:
          (Printf.sprintf
             "Ablation / index access path: transformed %s pipeline (10 parts x 64 supply, B=8)"
             kind)
        ~header:[ "configuration"; "total page I/O"; "rows" ] rows)
    [ "type-N"; "type-J" ]

(* The outer projection of NEST-JA2 step 1 (DISTINCT): dropping it is
   cheaper on temps but wrong on duplicate data — the two halves of the
   paper's sec. 5.4 argument. *)
let projection () =
  let rows =
    List.map
      (fun (label, project_outer) ->
        let catalog = F.parts_supply_catalog F.Duplicates in
        let q = F.parse_analyzed catalog F.query_q2 in
        let pred = List.hd q.Sql.Ast.where in
        let { Nest_ja2.temps; rewritten; _ } =
          Nest_ja2.transform q pred
            ~fresh:(fresh_counter "PT")
            ~project_outer ()
        in
        let result, io =
          measure_io catalog (fun () ->
              Planner.run_program catalog (program ~temps catalog rewritten))
        in
        let reference = Exec.Nested_iter.run catalog q in
        [
          label;
          show_ints result "PNUM";
          string_of_bool (Relation.equal_set reference result);
          string_of_int io;
        ])
      [ ("with DISTINCT projection (NEST-JA2)", true);
        ("without projection (sec. 5.4 variant)", false) ]
  in
  print_table
    ~title:
      "Ablation / outer projection (sec. 5.4, duplicates instance; ground truth {3, 8, 10})"
    ~header:[ "variant"; "result"; "correct"; "page I/O" ] rows

(* Model validation: feed the paper's §7.4 closed form with the *actual*
   page counts of a run (Pi, Pj from the catalog; Pt2, Pt3, Pt from the
   materialized temps; Rt4 proxied by Pt2+Pt3 since our pipeline streams the
   pre-GROUP-BY join result instead of materializing it), and compare with
   the measured all-merge I/O.  The paper never validated its formulas
   against an implementation; this section does. *)
let model () =
  let text = List.assoc "type-JA" sweep_queries in
  let rows =
    List.map
      (fun (n_parts, supply_per_part) ->
        let catalog =
          G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed:42 ~n_parts
            ~supply_per_part ()
        in
        let program = program catalog (F.parse_analyzed catalog text) in
        let _, measured =
          measure_io catalog (fun () ->
              Planner.run_program ~force:Planner.Force_merge catalog program)
        in
        (* page counts after the run; temps still registered *)
        let pages name = float_of_int (Catalog.pages catalog name) in
        let temp_pages =
          List.map (fun { Program.name; _ } -> pages name) program.Program.temps
        in
        let pt2, pt3, pt =
          match temp_pages with
          | [ a; b; c ] -> (a, b, c)
          | [ a; c ] -> (a, 0., c)
          | _ -> (1., 1., 1.)
        in
        let p =
          {
            Cost.pi = pages "PARTS"; pj = pages "SUPPLY"; pt2; pt3;
            pt4 = pt2 +. pt3; pt;
            b = Pager.buffer_pages (Catalog.pager catalog);
            fi_ni = float_of_int (Catalog.tuples catalog "PARTS");
            nt2 = float_of_int (Catalog.tuples catalog "PARTS");
          }
        in
        let predicted = Cost.ja2_total_merge ~rounding:Cost.Ceil p in
        let nested_pred = Cost.nested_iteration ~pi:p.pi ~pj:p.pj ~fi_ni:p.fi_ni in
        Planner.drop_temps catalog program;
        [
          Printf.sprintf "%dx%d" n_parts supply_per_part;
          f0 p.pi; f0 p.pj;
          f0 predicted;
          string_of_int measured;
          Printf.sprintf "%.2f" (float_of_int measured /. predicted);
          f0 nested_pred;
        ])
      [ (20, 4); (40, 8); (40, 16); (80, 16); (80, 32) ]
  in
  print_table
    ~title:
      "Model validation: sec. 7.4 closed form vs measured all-merge pipeline"
    ~header:
      [ "workload"; "Pi"; "Pj"; "model I/O"; "measured I/O"; "meas/model";
        "model nested" ]
    rows;
  Fmt.pr
    "(agreement within a few percent; residuals come from partial pages, LRU interference@.between concurrent scans, and the streamed pre-GROUP-BY join result.)@."

(* ---------------- bechamel timings ------------------------------------- *)

let timing () =
  let open Bechamel in
  let open Toolkit in
  let make_catalog () =
    G.scaled_catalog ~buffer_pages:8 ~page_bytes:128 ~seed:7 ~n_parts:30
      ~supply_per_part:8 ()
  in
  let bench_pair kind text =
    let c_nested = make_catalog () in
    let q_nested = F.parse_analyzed c_nested text in
    let nested =
      Test.make ~name:(kind ^ " nested-iteration")
        (Staged.stage (fun () ->
             ignore (Exec.Sysr_iteration.run c_nested q_nested)))
    in
    let c_trans = make_catalog () in
    let q_trans = F.parse_analyzed c_trans text in
    let program = program c_trans q_trans in
    let transformed =
      Test.make ~name:(kind ^ " transformed")
        (Staged.stage (fun () -> ignore (run_and_drop c_trans program)))
    in
    let transform_only =
      Test.make ~name:(kind ^ " transform (rewrite only)")
        (Staged.stage (fun () ->
             let n = ref 0 in
             let fresh () =
               incr n;
               Printf.sprintf "T%d" !n
             in
             ignore (Nest_g.transform ~fresh q_trans)))
    in
    [ nested; transformed; transform_only ]
  in
  let tests =
    List.concat_map (fun (kind, text) -> bench_pair kind text) sweep_queries
  in
  let test = Test.make_grouped ~name:"nestopt" ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows =
    List.sort compare !rows
    |> List.map (fun (name, ns) ->
           [
             name;
             (if Float.is_nan ns then "n/a"
              else if ns > 1_000_000. then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else Printf.sprintf "%.1f us" (ns /. 1e3));
           ])
  in
  print_table ~title:"Wall-clock (bechamel, monotonic clock, ns/run OLS)"
    ~header:[ "benchmark"; "time/run" ] rows

(* ---------------- BENCH_perf.json -------------------------------------- *)

(* Machine-readable perf harness: wall-clock (Unix.gettimeofday), logical /
   physical page I/O and row counts over a fixed query grid (up to a
   10k-row SUPPLY), comparing nested iteration, the paper-mode pipeline and
   the hybrid-mode pipeline; plus a pager microbench that pins the O(1)
   page-touch claim (cost flat as the pool grows).  Written to
   BENCH_perf.json for regression tracking across commits. *)

let time_io catalog run =
  let pager = Catalog.pager catalog in
  let before = Pager.snapshot pager in
  (* Quiesce the GC so the catalog build's garbage isn't collected inside
     the timed region — without this, major slices land in random reps and
     the median wobbles by tens of percent. *)
  Gc.full_major ();
  let words = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let result = run () in
  let wall = Unix.gettimeofday () -. t0 in
  (result, wall, Pager.diff_since pager before, Gc.minor_words () -. words)

(* Warm-up + median-of-k timing.  Every sample runs on a {e fresh} catalog
   (cold pager, fresh temps — [run_program] registers temps under fixed
   names, so reps must not share state); the parse and the NEST-G rewrite
   happen outside the timed region, so a cell times planning + execution.
   The warm-up rep absorbs allocator and code-path warmup; the median over
   [reps] suppresses scheduler noise that a single-shot number is hostage
   to. *)
type sample = {
  s_rows : int;
  s_wall : float;
  s_io : Pager.stats;
  s_words : float; (* minor-heap words the run allocated *)
}

let median_sample samples =
  let sorted =
    List.sort (fun a b -> Float.compare a.s_wall b.s_wall) samples
  in
  List.nth sorted (List.length sorted / 2)

let run_strategy ~warmup ~reps ~buffer_pages ~page_bytes ~n_parts
    ~supply_per_part text strategy =
  let once () =
    let catalog =
      G.scaled_catalog ~buffer_pages ~page_bytes ~seed:42 ~n_parts
        ~supply_per_part ()
    in
    let q = F.parse_analyzed catalog text in
    let run =
      match strategy with
      | `Nested -> fun () -> Exec.Sysr_iteration.run catalog q
      | `Transformed mode ->
          let program = program catalog q in
          fun () -> Planner.run_program ~mode catalog program
    in
    let result, wall, io, words = time_io catalog run in
    {
      s_rows = Relation.cardinality result;
      s_wall = wall;
      s_io = io;
      s_words = words;
    }
  in
  for _ = 1 to warmup do
    ignore (once ())
  done;
  median_sample (List.init reps (fun _ -> once ()))

let strategy_json ~name { s_rows; s_wall; s_io = io; s_words } =
  Json.Obj
    [
      ("name", Json.Str name);
      ("wall_s", Json.Float s_wall);
      ("minor_words", Json.Float s_words);
      ("logical_reads", Json.Int io.Pager.logical_reads);
      ("physical_reads", Json.Int io.Pager.physical_reads);
      ("physical_writes", Json.Int io.Pager.physical_writes);
      ("rows", Json.Int s_rows);
    ]

(* The grid: 100 parts, SUPPLY scaling 500 -> 10000 rows.  The pool is
   sized so the hybrid
   planner's hash paths are eligible at every scale; nested iteration is
   skipped at the largest scales where its quadratic page traffic dominates
   the whole run.  The pool holds SUPPLY at every scale (1000 pages at
   10000 rows).  Each cell also returns the hybrid program's page writes. *)
let json_grid ~scales ~warmup ~reps () =
  let buffer_pages = 1024 and page_bytes = 256 in
  let n_parts = 100 in
  List.concat_map
    (fun (kind, text) ->
      List.map
        (fun supply_per_part ->
          let run s =
            run_strategy ~warmup ~reps ~buffer_pages ~page_bytes ~n_parts
              ~supply_per_part text s
          in
          let supply_rows = n_parts * supply_per_part in
          let nested =
            if supply_rows <= 2500 then Some (run `Nested) else None
          in
          let paper = run (`Transformed Planner.Paper1987) in
          let hybrid = run (`Transformed Planner.Hybrid) in
          let strategies =
            (match nested with
            | Some r -> [ strategy_json ~name:"nested_iteration" r ]
            | None -> [])
            @ [
                strategy_json ~name:"transformed_paper1987" paper;
                strategy_json ~name:"transformed_hybrid" hybrid;
              ]
          in
          let hybrid_speedup = paper.s_wall /. hybrid.s_wall in
          ( kind,
            supply_rows,
            hybrid_speedup,
            hybrid.s_io.Pager.physical_writes,
            Json.Obj
              [
                ("query", Json.Str kind);
                ("n_parts", Json.Int n_parts);
                ("supply_rows", Json.Int supply_rows);
                ("buffer_pages", Json.Int buffer_pages);
                ("page_bytes", Json.Int page_bytes);
                ("timing", Json.Obj
                   [ ("warmup", Json.Int warmup); ("reps", Json.Int reps);
                     ("stat", Json.Str "median") ]);
                ("strategies", Json.List strategies);
                ("hybrid_speedup_vs_paper", Json.Float hybrid_speedup);
              ] ))
        scales)
    grid_queries

(* Pager page-touch microbench: a pool-resident file of B pages touched
   uniformly at random.  Every touch is a hit, so the measured cost is pure
   LRU maintenance — it must stay flat as B grows (O(1) array-linked
   frames), where a list-based LRU degrades linearly.  Beside the hits, one
   miss point: sequential rescans of a file four times a 1024-page pool,
   which miss on every page (each evicts the LRU frame). *)
let json_pager_scaling () =
  let touches = 200_000 in
  let ns_per_touch ~buffer_pages ~file_pages page_of =
    let pager = Pager.create ~buffer_pages ~page_bytes:64 () in
    let f = Pager.create_file pager in
    for _ = 1 to file_pages do
      Pager.append_page pager f [||]
    done;
    let t0 = Unix.gettimeofday () in
    for k = 1 to touches do
      ignore (Pager.read_page pager f (page_of k))
    done;
    let wall = Unix.gettimeofday () -. t0 in
    (wall *. 1e9 /. float_of_int touches, Pager.stats pager)
  in
  let point buffer_pages =
    let rng = Random.State.make [| 7 |] in
    let ns, _ =
      ns_per_touch ~buffer_pages ~file_pages:buffer_pages (fun _ ->
          Random.State.int rng buffer_pages)
    in
    (buffer_pages, ns)
  in
  let points = List.map point [ 16; 128; 1024; 8192 ] in
  let miss_pool = 1024 and miss_file = 4096 in
  let ns_per_miss, miss_stats =
    ns_per_touch ~buffer_pages:miss_pool ~file_pages:miss_file (fun k ->
        k mod miss_file)
  in
  assert (miss_stats.Pager.physical_reads = touches);
  let ns = List.map snd points in
  let flatness =
    List.fold_left Float.max 0. ns /. List.fold_left Float.min infinity ns
  in
  ( (flatness, ns_per_miss),
    Json.Obj
      [
        ("touches", Json.Int touches);
        ( "points",
          Json.List
            (List.map
               (fun (b, ns) ->
                 Json.Obj
                   [
                     ("buffer_pages", Json.Int b);
                     ("ns_per_touch", Json.Float ns);
                   ])
               points) );
        ("flatness_max_over_min", Json.Float flatness);
        ( "miss",
          Json.Obj
            [
              ("buffer_pages", Json.Int miss_pool);
              ("file_pages", Json.Int miss_file);
              ("ns_per_miss", Json.Float ns_per_miss);
            ] );
      ] )

(* Per-operator breakdowns: one instrumented hybrid-mode run per query kind
   (planner estimates via Optimizer.Estimate, actuals from the EXPLAIN
   ANALYZE observer — per batch for a batch operator), at a fixed mid-grid
   scale.  Each segment's "plan" is the Exec.Explain.render_json tree. *)
let json_operator_breakdowns ~supply_per_part () =
  let buffer_pages = 1024 and page_bytes = 256 in
  let n_parts = 100 in
  List.map
    (fun (kind, text) ->
      let catalog =
        G.scaled_catalog ~buffer_pages ~page_bytes ~seed:42 ~n_parts
          ~supply_per_part ()
      in
      let segs =
        Planner.explain_segments ~mode:Planner.Hybrid ~analyze:true catalog
          (Planner.Program (program catalog (F.parse_analyzed catalog text)))
      in
      Json.Obj
        [
          ("query", Json.Str kind);
          ("n_parts", Json.Int n_parts);
          ("supply_rows", Json.Int (n_parts * supply_per_part));
          ( "segments",
            Json.List
              (List.map
                 (fun (s : Planner.explained) ->
                   Json.Obj
                     [
                       ("label", Json.Str s.Planner.seg_label);
                       ("plan", s.Planner.seg_json);
                     ])
                 segs) );
        ])
    grid_queries

(* ---------------- batched vs nested vs rewrite -------------------------- *)

(* v4: head-to-head wall-clock of the three strategies on duplicate-skewed
   data — a small key range, so many outer rows share each distinct
   correlation key; exactly the regime batching is built for and the
   opposite of [scaled_catalog]'s unique keys — at 1k and 10k SUPPLY rows.
   The quantified type-JA cell is the headline: this harness calls
   [Nest_g.transform] without catalog NULL knowledge, so the §8 ALL
   rewrite's conservative COUNT-form guard refuses it, leaving batched as
   the only optimizing strategy that answers.  The harness asserts batched
   beats nested iteration on that refused cell (dedup makes it one inner
   evaluation per distinct key instead of per outer row). *)

let skew_queries =
  [
    (* refused by the conservative rewrite; batched carries it *)
    ( "type-JA-all-refused",
      "SELECT PNUM FROM PARTS WHERE QOH >= ALL (SELECT QUAN FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)" );
    (* all three strategies answer *)
    ( "type-JA-count",
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)" );
  ]

let run_skew ~warmup ~reps ~n_parts ~n_supply ~key_range text strategy =
  let once () =
    let rng = Random.State.make [| 42 |] in
    let catalog =
      G.catalog_of ~buffer_pages:1024 ~page_bytes:256
        [
          ("PARTS", G.parts rng ~n:n_parts ~key_range);
          ("SUPPLY", G.supply rng ~n:n_supply ~key_range);
        ]
    in
    let q = F.parse_analyzed catalog text in
    let run =
      match strategy with
      | `Nested -> Some (fun () -> Exec.Sysr_iteration.run catalog q)
      | `Batched ->
          Some
            (fun () -> (Batched_nest.run catalog q).Batched_nest.relation)
      | `Rewrite -> (
          match program catalog q with
          | program ->
              Some
                (fun () ->
                  Planner.run_program ~mode:Planner.Hybrid catalog program)
          | exception Program.Refused _ -> None)
    in
    Option.map
      (fun run ->
        let result, wall, io, words = time_io catalog run in
        {
          s_rows = Relation.cardinality result;
          s_wall = wall;
          s_io = io;
          s_words = words;
        })
      run
  in
  match once () with
  | None -> None
  | Some _ ->
      for _ = 1 to warmup do
        ignore (once ())
      done;
      Some
        (median_sample
           (List.init reps (fun _ -> Option.get (once ()))))

(* Returns the JSON cells plus the assertion outcomes: on every refused
   cell where nested ran, batched must be strictly faster. *)
let json_batched_comparison ~scales ~warmup ~reps () =
  let n_parts = 500 and key_range = 10 in
  List.concat_map
    (fun n_supply ->
      List.map
        (fun (kind, text) ->
          let run s =
            run_skew ~warmup ~reps ~n_parts ~n_supply ~key_range text s
          in
          let nested = Option.get (run `Nested) in
          let batched = Option.get (run `Batched) in
          let rewrite = run `Rewrite in
          let refused = rewrite = None in
          let speedup = nested.s_wall /. batched.s_wall in
          let strategies =
            [
              strategy_json ~name:"nested_iteration" nested;
              strategy_json ~name:"batched" batched;
            ]
            @
            match rewrite with
            | Some r ->
                [ strategy_json ~name:"transformed_hybrid" r ]
            | None -> []
          in
          let cell =
            Json.Obj
              [
                ("query", Json.Str kind);
                ("n_parts", Json.Int n_parts);
                ("supply_rows", Json.Int n_supply);
                ("key_range", Json.Int key_range);
                ("rewrite_refused", Json.Bool refused);
                ("strategies", Json.List strategies);
                ("batched_speedup_vs_nested", Json.Float speedup);
              ]
          in
          let beats = (not refused) || batched.s_wall < nested.s_wall in
          (kind, n_supply, refused, speedup, beats, cell))
        skew_queries)
    scales

(* The §7 crossover: a 10k-row SUPPLY with a B-tree on PNUM against outer
   blocks of growing size.  Small outers probe a handful of keys —
   un-transformed indexed nested iteration undercuts any transformed
   program — and large ones amortize the transformed program's reads.
   Each cell records the estimates Core's Auto decides with (every priced
   candidate: indexed nested iteration, the transformed program, batched
   execution), Auto's pick, and measured I/O for indexed and unindexed
   nested iteration, the transformed program Auto would run (through
   Core, keyed TEMP2 included) and Auto itself.  Asserted per cell:
   indexed nested iteration beats the {e unindexed} enumeration on total
   page I/O (the probe must pay off), and whatever Auto picks measures at
   most 10% above the cheapest candidate — soundness in both directions,
   the tolerance nestbench's [auto_wrong_picks] uses. *)
let crossover_queries =
  [
    ( "type-J",
      "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
       SUPPLY.PNUM = PARTS.PNUM)" );
    ( "type-JA",
      "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY \
       WHERE SUPPLY.PNUM = PARTS.PNUM)" );
  ]

(* The outer blocks of the sweep.  [Random n]: n PARTS rows with keys drawn
   from SUPPLY's 1000 — sparse keys, so each probe fetches ~10 matches,
   the selective regime where an index pays.  [Repeated]: nestbench's
   crossover data — 256 rows cycling over keys 1-128 against nestbench's
   SUPPLY (10% NULLs in every column; the non-NULL keys cycle row by row,
   so the rows of neighbouring keys share pages), each key probed twice.
   [Distinct]: 1024 rows, keys 1-1024 once each, where the transformed
   program must win. *)
type crossover_outer = Random of int | Repeated | Distinct

let outer_name = function
  | Random _ -> "random"
  | Repeated -> "repeated"
  | Distinct -> "distinct"

let supply_rows = 10_000
let key_range = 1_000

(* [rel] with its first column (PNUM) NULL in the first [nulls] rows and
   cycling through 1..keys in the others. *)
let cycle_keys ~nulls ~keys rel =
  Relation.make (Relation.schema rel)
    (List.mapi
       (fun i row ->
         let key =
           if i < nulls then Value.Null else Value.Int (((i - nulls) mod keys) + 1)
         in
         Relalg.Row.of_list (key :: List.tl (Relalg.Row.to_list row)))
       (Relation.rows rel))

let crossover_tables outer =
  let rng = Random.State.make [| 42 |] in
  let parts n ~keys = G.parts rng ~n ~key_range:keys in
  let supply null_pct = G.supply ~null_pct rng ~n:supply_rows ~key_range in
  let parts, supply =
    match outer with
    | Random n ->
        let parts = parts n ~keys:key_range in
        (parts, supply 0)
    | Repeated ->
        ( cycle_keys ~nulls:0 ~keys:128 (parts 256 ~keys:128),
          cycle_keys ~nulls:(supply_rows / 10) ~keys:key_range (supply 10) )
    | Distinct ->
        (cycle_keys ~nulls:0 ~keys:1024 (parts 1024 ~keys:1024), supply 0)
  in
  [ ("PARTS", parts); ("SUPPLY", supply) ]

(* A fresh database over the outer's tables — the pool is smaller than
   SUPPLY's file, so the unindexed enumeration's rescans show up as
   physical I/O. *)
let crossover_db ~indexed outer =
  let db = Core.create_db ~buffer_pages:256 ~page_bytes:256 () in
  List.iter
    (fun (name, rel) ->
      Core.define_table db name
        (List.map
           (fun (c : Relalg.Schema.column) -> (c.name, c.ty))
           (Relalg.Schema.columns (Relation.schema rel)))
        (List.map Relalg.Row.to_list (Relation.rows rel)))
    (crossover_tables outer);
  if indexed then Core.create_index db "SUPPLY" ~column:"PNUM";
  db

type crossover_cell = {
  x_kind : string;
  x_outer : crossover_outer;
  x_rows : int;  (* outer rows *)
  x_via : Core.via;  (* Auto's pick *)
  x_indexed : sample;
  x_unindexed : sample;
  x_transformed : sample;
  x_auto : sample;
  x_probe_pays : bool;
  x_sound : bool;
  x_json : Json.t;
}

let json_index_crossover ~outers ~warmup ~reps () =
  let cell (kind, text) outer =
    let measure ~indexed strategy =
      let once () =
        let db = crossover_db ~indexed outer in
        let e, wall, io, words =
          time_io (Core.catalog db) (fun () ->
              match Core.run ~strategy db text with
              | Ok e -> e
              | Error msg -> failwith msg)
        in
        ( {
            s_rows = Relation.cardinality e.Core.result;
            s_wall = wall;
            s_io = io;
            s_words = words;
          },
          e.Core.decision )
      in
      for _ = 1 to warmup do
        ignore (once ())
      done;
      let runs = List.init reps (fun _ -> once ()) in
      (median_sample (List.map fst runs), snd (List.hd runs))
    in
    let indexed, _ = measure ~indexed:true Core.Nested_iteration in
    let unindexed, _ = measure ~indexed:false Core.Nested_iteration in
    let transformed, _ =
      measure ~indexed:true (Core.Transformed Planner.Auto)
    in
    (* Auto's pick and the estimates it decided with *)
    let auto, decision = measure ~indexed:true Core.Auto in
    let { Core.pick = via; candidates; _ } = Option.get decision in
    let rows = Relation.cardinality (List.assoc "PARTS" (crossover_tables outer)) in
    let io s = Pager.total_io s.s_io in
    let cheapest = min (io indexed) (io transformed) in
    let estimate f =
      match Option.bind candidates f with
      | Some c -> Json.Float c
      | None -> Json.Null
    in
    let x_json =
      Json.Obj
        [
          ("query", Json.Str kind);
          ("outer", Json.Str (outer_name outer));
          ("outer_rows", Json.Int rows);
          ("supply_rows", Json.Int supply_rows);
          ("key_range", Json.Int key_range);
          ( "estimates",
            Json.Obj
              [
                ("nested", estimate (fun c -> Some c.Core.est_nested));
                ("transformed", estimate (fun c -> c.Core.est_transformed));
                ("batched", estimate (fun c -> c.Core.est_batched));
              ] );
          ("picked", Json.Str (Core.via_name via));
          ( "strategies",
            Json.List
              [
                strategy_json ~name:"indexed_nested" indexed;
                strategy_json ~name:"unindexed_nested"
                  unindexed;
                strategy_json ~name:"transformed" transformed;
                strategy_json ~name:"auto" auto;
              ] );
        ]
    in
    {
      x_kind = kind;
      x_outer = outer;
      x_rows = rows;
      x_via = via;
      x_indexed = indexed;
      x_unindexed = unindexed;
      x_transformed = transformed;
      x_auto = auto;
      x_probe_pays = io indexed < io unindexed;
      x_sound = float_of_int (io auto) <= 1.1 *. float_of_int cheapest;
      x_json;
    }
  in
  List.concat_map
    (fun query -> List.map (cell query) outers)
    crossover_queries

(* Structural v7 schema check on the serialized document: it must parse,
   and each required member path (dot-separated; "*" fans out over a
   list) must reach at least one value — equal to the expected one where
   given.  Catches a key rename or a dropped section.  Returns the failed
   requirements. *)
let validate_v7 text =
  let required =
    [
      ("schema_version", Some (Json.Int 7));
      ("index_crossover.cells.*.estimates.nested", None);
      ("index_crossover.cells.*.estimates.transformed", None);
      ("index_crossover.cells.*.estimates.batched", None);
      ( "index_crossover.cells.*.picked",
        Some (Json.Str (Core.via_name Core.Via_nested)) );
      ( "index_crossover.cells.*.picked",
        Some (Json.Str (Core.via_name Core.Via_transformed)) );
      ("index_crossover.cells.*.outer", Some (Json.Str "repeated"));
      ("index_crossover.cells.*.outer", Some (Json.Str "distinct"));
      ( "index_crossover.cells.*.strategies.*.name",
        Some (Json.Str "indexed_nested") );
      ("index_crossover.crossover_outer_rows", None);
      ("batched_comparison.*.strategies.*.name", Some (Json.Str "batched"));
      ("batched_comparison.*.batched_speedup_vs_nested", None);
      ("batched_comparison.*.rewrite_refused", Some (Json.Bool true));
      ("batched_comparison.*.key_range", None);
      ("queries.*.timing.stat", Some (Json.Str "median"));
      ("queries.*.hybrid_speedup_vs_paper", None);
      ("pager_scaling", None);
      ("operator_breakdowns.*.segments.*.plan.actual.rows_per_call", None);
      ("operator_breakdowns.*.segments.*.plan.actual.batches", None);
    ]
  in
  let rec at j = function
    | [] -> [ j ]
    | "*" :: rest -> (
        match j with
        | Json.List items -> List.concat_map (fun i -> at i rest) items
        | _ -> [])
    | key :: rest ->
        Option.fold ~none:[] ~some:(fun v -> at v rest) (Json.member key j)
  in
  let missing doc (path, expected) =
    let found = at doc (String.split_on_char '.' path) in
    match expected with
    | None when found = [] -> Some path
    | Some v when not (List.mem v found) ->
        Some (path ^ " = " ^ Json.to_string v)
    | _ -> None
  in
  match Json.parse text with
  | Error e -> [ e ]
  | Ok doc -> List.filter_map (missing doc) required

let json_bench ~smoke () =
  (* Smoke: one small scale, fewer reps — a CI-speed structural run of the
     same code path; the full grid is the perf artifact. *)
  let scales = if smoke then [ 5 ] else [ 5; 10; 25; 50; 100 ] in
  let warmup = 1 in
  let reps = if smoke then 3 else 9 in
  let grid = json_grid ~scales ~warmup ~reps () in
  let (flatness, ns_per_miss), pager_json = json_pager_scaling () in
  (* batched-vs-nested-vs-rewrite on duplicate-skewed keys; nested runs at
     every scale here (500 outer rows keep it tractable at 10k) *)
  let skew =
    json_batched_comparison
      ~scales:(if smoke then [ 1_000 ] else [ 1_000; 10_000 ])
      ~warmup ~reps:(min reps 3) ()
  in
  (* the §7 index crossover: outer size swept against a fixed 10k SUPPLY,
     plus a repeated-key and a large all-distinct outer *)
  let crossover =
    json_index_crossover
      ~outers:
        (List.map
           (fun n -> Random n)
           (if smoke then [ 4; 64 ] else [ 4; 16; 64; 256 ])
        @ [ Repeated; Distinct ])
      ~warmup ~reps:(min reps 3) ()
  in
  (* smallest outer size at which Auto picks the transformed program *)
  let crossover_point kind =
    List.fold_left
      (fun acc x ->
        if x.x_kind = kind && x.x_via = Core.Via_transformed then
          Some (match acc with Some m -> min m x.x_rows | None -> x.x_rows)
        else acc)
      None crossover
  in
  let doc =
    Json.Obj
      [
        (* v7: one executor — no "engine" field, no
           "vectorized_speedup_vs_tuple" per cell, no headline
           "vectorized_speedup_10k" / "hybrid_speedup_10k" /
           "speedup_scale_supply_rows"; operator_breakdowns one entry per
           query.  v6: "index_crossover" cells run through Core — indexed vs
           unindexed nested iteration vs the transformed program Auto
           would run (keyed TEMP2 included) vs Auto itself, each cell
           naming its "outer" shape ("random" / "repeated" / "distinct")
           and carrying every candidate's "estimates" ("nested" /
           "transformed" / "batched") with Auto's "picked" strategy;
           headline "crossover_outer_rows" where Auto first picks the
           transformed program.  v5 added the section with
           "est_nested_cost" / "transformed_floor" estimates.  v4 keys
           unchanged: "batched_comparison" — the
           three-strategy head-to-head on duplicate-skewed keys, with
           per-cell "rewrite_refused" and "batched_speedup_vs_nested";
           timing is median-of-k with warm-up ("timing" object). *)
        ("schema_version", Json.Int 7);
        ("queries", Json.List (List.map (fun (_, _, _, _, j) -> j) grid));
        ( "batched_comparison",
          Json.List (List.map (fun (_, _, _, _, _, j) -> j) skew) );
        ( "index_crossover",
          Json.Obj
            [
              ( "cells",
                Json.List (List.map (fun x -> x.x_json) crossover) );
              ( "crossover_outer_rows",
                Json.Obj
                  (List.map
                     (fun (kind, _) ->
                       ( kind,
                         match crossover_point kind with
                         | Some n -> Json.Int n
                         | None -> Json.Null ))
                     crossover_queries) );
            ] );
        ("pager_scaling", pager_json);
        ( "operator_breakdowns",
          Json.List
            (json_operator_breakdowns
               ~supply_per_part:(if smoke then 5 else 25)
               ()) );
      ]
  in
  let path = if smoke then "BENCH_perf.smoke.json" else "BENCH_perf.json" in
  let text = Json.to_string doc in
  let oc = open_out path in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  List.iter
    (fun (kind, rows, hybrid_speedup, _, _) ->
      Fmt.pr "%-8s %6d supply rows: hybrid %.2fx vs paper@." kind rows
        hybrid_speedup)
    grid;
  Fmt.pr
    "pager page-touch flatness (max/min ns over B=16..8192): %.2f; %.1f ns \
     per miss@."
    flatness ns_per_miss;
  List.iter
    (fun (kind, rows, refused, speedup, _, _) ->
      Fmt.pr "%-22s %6d supply rows: batched %.2fx vs nested%s@." kind rows
        speedup
        (if refused then " (rewrite refused)" else ""))
    skew;
  let describe_crossover x =
    Fmt.str
      "%s %d %s outer rows: auto picks %s; io indexed-nested %d / unindexed \
       %d / transformed %d / auto %d"
      x.x_kind x.x_rows (outer_name x.x_outer) (Core.via_name x.x_via)
      (Pager.total_io x.x_indexed.s_io)
      (Pager.total_io x.x_unindexed.s_io)
      (Pager.total_io x.x_transformed.s_io)
      (Pager.total_io x.x_auto.s_io)
  in
  List.iter (fun x -> Fmt.pr "%s@." (describe_crossover x)) crossover;
  List.iter
    (fun (kind, _) ->
      Fmt.pr "%-8s crossover to transformed at %s outer rows@." kind
        (match crossover_point kind with
        | Some n -> string_of_int n
        | None -> "(none in sweep)"))
    crossover_queries;
  Fmt.pr "wrote %s@." path;
  (* The refused cell is batching's reason to exist: if it is not faster
     than row-at-a-time nested iteration on skewed keys, the strategy (or
     its dedup) has regressed. *)
  let losses =
    List.filter (fun (_, _, _, _, beats, _) -> not beats) skew
  in
  if losses <> [] then begin
    List.iter
      (fun (kind, rows, _, speedup, _, _) ->
        Fmt.epr
          "batched does NOT beat nested on refused cell %s at %d supply \
           rows (%.2fx)@."
          kind rows speedup)
      losses;
    exit 1
  end;
  (* Index assertions: the probe must pay off (indexed nested beats the
     unindexed enumeration on page I/O at every cell), Auto's pick must be
     sound in both directions (its measured page I/O within 10% of the
     cheapest candidate's, whichever it picked), and the sweep must hold
     both regimes: a cell where the untransformed indexed iteration is
     picked — the regime the paper's uniform-transformation policy misses
     — and one where the transformed program is. *)
  let index_losses =
    List.filter (fun x -> not (x.x_probe_pays && x.x_sound)) crossover
  in
  if index_losses <> [] then begin
    List.iter
      (fun x ->
        Fmt.epr "index crossover cell FAILED (%s): %s@."
          (if x.x_probe_pays then
             "auto's pick measures more than 10% above the cheapest"
           else "indexed nested did not beat unindexed")
          (describe_crossover x))
      index_losses;
    exit 1
  end;
  List.iter
    (fun (via, regime) ->
      if not (List.exists (fun x -> x.x_via = via) crossover) then begin
        Fmt.epr "no crossover cell picks %s — the %s regime is gone@."
          (Core.via_name via) regime;
        exit 1
      end)
    [ (Core.Via_nested, "§7 indexed"); (Core.Via_transformed, "transformed") ];
  (* In a pool that holds SUPPLY, Hybrid pipelines each single-use temp
     into its reader and every join it plans reads a stored table or a
     hash table: the program writes nothing. *)
  List.iter
    (fun (kind, rows, _, writes, _) ->
      if writes > 0 then begin
        Fmt.epr
          "grid cell %s at %d supply rows: transformed_hybrid writes %d \
           pages in a pool that holds SUPPLY@."
          kind rows writes;
        exit 1
      end)
    grid;
  match validate_v7 text with
  | [] -> Fmt.pr "schema v7 check: ok@."
  | missing ->
      Fmt.epr "schema v7 check FAILED; missing keys:@.";
      List.iter (fun k -> Fmt.epr "  %s@." k) missing;
      exit 1

(* ---------------- --compare --------------------------------------------- *)

(* What two bench documents must agree on when only timings may differ:
   row counts, page I/O, Auto's pick and its estimates.  A member with one
   of these names is compared whole, wherever it sits. *)
let compared_members =
  [
    "rows"; "logical_reads"; "physical_reads"; "physical_writes"; "picked";
    "estimates";
  ]

(* Reported when they differ, never failed on: like timings, they move
   with the code's CPU work, not its page I/O. *)
let reported_members = [ "minor_words" ]

(* [(path, value)] of every member named in [members], in document order;
   a path reads like [.queries[0].strategies[2].rows]. *)
let member_values members doc =
  let rec go path acc = function
    | Json.Obj fields ->
        List.fold_left
          (fun acc (name, v) ->
            let path = path ^ "." ^ name in
            if List.mem name members then (path, v) :: acc
            else go path acc v)
          acc fields
    | Json.List items ->
        snd
          (List.fold_left
             (fun (i, acc) v -> (i + 1, go (Fmt.str "%s[%d]" path i) acc v))
             (0, acc) items)
    | _ -> acc
  in
  List.rev (go "" [] doc)

(* [--compare BASE NEW]: list every compared path whose value differs or
   is missing on one side; exit 1 when there is one (or a file does not
   parse).  Reported members that differ are listed first, as notes. *)
let compare_files base_path new_path =
  let load path =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> doc
    | Error e ->
        Fmt.epr "%s: %s@." path e;
        exit 1
  in
  let base_doc = load base_path and fresh_doc = load new_path in
  let reported = member_values reported_members fresh_doc in
  List.iter
    (fun (path, v) ->
      match List.assoc_opt path reported with
      | Some v' when v' <> v ->
          Fmt.pr "note: %s: %s -> %s (reported, not compared)@." path
            (Json.to_string v) (Json.to_string v')
      | _ -> ())
    (member_values reported_members base_doc);
  let base = member_values compared_members base_doc
  and fresh = member_values compared_members fresh_doc in
  let only_in values other name =
    List.filter_map
      (fun (path, v) ->
        if List.mem_assoc path other then None
        else Some (Fmt.str "%s: %s only in %s" path (Json.to_string v) name))
      values
  in
  let changed =
    List.filter_map
      (fun (path, v) ->
        match List.assoc_opt path fresh with
        | Some v' when v' <> v ->
            Some
              (Fmt.str "%s: %s -> %s" path (Json.to_string v)
                 (Json.to_string v'))
        | _ -> None)
      base
  in
  match
    changed @ only_in base fresh base_path @ only_in fresh base new_path
  with
  | [] ->
      Fmt.pr "%s vs %s: %d rows / page-I/O / pick / estimate values, all equal@."
        base_path new_path (List.length base)
  | differences ->
      List.iter (Fmt.pr "%s@.") differences;
      Fmt.pr "%s vs %s: %d differences@." base_path new_path
        (List.length differences);
      exit 1

(* ---------------- driver ------------------------------------------------ *)

let sections =
  [
    ("fig1", fig1); ("sec74", sec74); ("bugs", bugs); ("figure2", figure2);
    ("sweep", sweep); ("ext", ext); ("strategies", strategies);
    ("buffers", buffers); ("indexes", indexes); ("projection", projection);
    ("model", model); ("timing", timing);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--compare"; base; fresh ] -> compare_files base fresh
  | "--compare" :: _ ->
      Fmt.epr "usage: main.exe --compare BASE.json NEW.json@.";
      exit 1
  | args when List.mem "--json" args -> json_bench ~smoke:false ()
  | args when List.mem "--smoke" args -> json_bench ~smoke:true ()
  | args ->
      let requested = if args <> [] then args else List.map fst sections in
      List.iter
        (fun name ->
          match List.assoc_opt name sections with
          | Some f -> f ()
          | None ->
              Fmt.epr "unknown section %s (available: %s)@." name
                (String.concat " " (List.map fst sections));
              exit 1)
        requested

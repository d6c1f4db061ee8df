(* Randomized equivalence properties: for random databases and random
   queries of each of Kim's types, the transformed program must produce the
   nested-iteration result.

   Comparison discipline (DESIGN.md): type-JA programs are bag-compared
   (NEST-JA2 is multiplicity-correct — the aggregate temp is keyed by the
   grouped outer columns); type-N/J programs are set-compared (Kim's Lemma 1
   ignores the multiplicity change of IN-to-join, and so does the paper). *)

module Relation = Relalg.Relation
module Catalog = Storage.Catalog
module F = Workload.Fixtures
module G = Workload.Gen

let run_transformed catalog text =
  let q = F.parse_analyzed catalog text in
  let program =
    Optimizer.Nest_g.transform
      ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
      q
  in
  let result = Fixtures.run_verified catalog program in
  Optimizer.Planner.drop_temps catalog program;
  result

let reference catalog text =
  Exec.Nested_iter.run catalog (F.parse_analyzed catalog text)

(* One trial: build a DB from the seed, generate a query with the same rng,
   compare.  [compare_] selects bag or set equality. *)
let trial ~make_query ~compare_ (seed : int) : bool =
  let rng = Random.State.make [| seed |] in
  let n_parts = G.int_in rng 1 12 in
  let n_supply = G.int_in rng 0 25 in
  let key_range = G.int_in rng 1 8 in
  let catalog = G.parts_supply_catalog rng ~n_parts ~n_supply ~key_range in
  let text = make_query rng in
  let expected = reference catalog text in
  let got = run_transformed catalog text in
  if compare_ expected got then true
  else begin
    Fmt.epr "@.seed %d query %s@.reference:@.%a@.transformed:@.%a@." seed text
      Relation.pp expected Relation.pp got;
    false
  end

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let prop name ~count ~make_query ~compare_ =
  QCheck2.Test.make ~name ~count seed_gen (trial ~make_query ~compare_)

let prop_type_n =
  prop "random type-N: transformed =set= nested iteration" ~count:150
    ~make_query:G.n_query ~compare_:Relation.equal_set

let prop_type_a =
  prop "random type-A: transformed =bag= nested iteration" ~count:150
    ~make_query:G.a_query ~compare_:Relation.equal_bag

let prop_type_j =
  prop "random type-J: transformed =set= nested iteration" ~count:150
    ~make_query:G.j_query ~compare_:Relation.equal_set

let prop_type_ja =
  prop "random type-JA: transformed =bag= nested iteration" ~count:300
    ~make_query:G.ja_query ~compare_:Relation.equal_bag

let prop_deep =
  prop "random multi-level: transformed =set= nested iteration" ~count:150
    ~make_query:G.deep_query ~compare_:Relation.equal_set

(* The paged System R evaluator agrees with the in-memory oracle on random
   nested queries (both strategies, same catalog contents). *)
let prop_sysr_agrees =
  QCheck2.Test.make ~name:"paged nested iteration = in-memory oracle"
    ~count:100 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n_parts = G.int_in rng 1 10 in
      let n_supply = G.int_in rng 0 20 in
      let key_range = G.int_in rng 1 6 in
      let catalog = G.parts_supply_catalog rng ~n_parts ~n_supply ~key_range in
      let text = G.ja_query rng in
      let q = F.parse_analyzed catalog text in
      Relation.equal_bag
        (Exec.Nested_iter.run catalog q)
        (Exec.Sysr_iteration.run catalog q))

(* Both join methods produce identical relations for transformed JA
   programs. *)
let prop_join_methods_agree =
  QCheck2.Test.make ~name:"forced NL = forced merge on transformed programs"
    ~count:100 seed_gen (fun seed ->
      let text =
        let rng = Random.State.make [| seed |] in
        let _ = G.int_in rng 1 10 and _ = G.int_in rng 0 20 in
        let _ = G.int_in rng 1 6 in
        G.ja_query rng
      in
      let run force =
        (* fresh catalog per run: same seed, same data, independent temps *)
        let rng = Random.State.make [| seed |] in
        let n_parts = G.int_in rng 1 10 in
        let n_supply = G.int_in rng 0 20 in
        let key_range = G.int_in rng 1 6 in
        let catalog =
          G.parts_supply_catalog rng ~n_parts ~n_supply ~key_range
        in
        let q = F.parse_analyzed catalog text in
        let program =
          Optimizer.Nest_g.transform
            ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
            q
        in
        Fixtures.run_verified ~force catalog program
      in
      Relation.equal_bag (run Optimizer.Planner.Force_nl)
        (run Optimizer.Planner.Force_merge))

(* Random flat queries: the planner agrees with the oracle, bag semantics
   (no IN-to-join multiplicity question arises without nesting). *)
let prop_planner_flat =
  QCheck2.Test.make ~name:"random flat queries: planner =bag= oracle"
    ~count:150 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n_parts = G.int_in rng 1 12 in
      let n_supply = G.int_in rng 0 25 in
      let key_range = G.int_in rng 1 8 in
      let catalog = G.parts_supply_catalog rng ~n_parts ~n_supply ~key_range in
      let text = G.flat_query rng in
      let q = F.parse_analyzed catalog text in
      let expected = Exec.Nested_iter.run catalog q in
      let got =
        Exec.Plan.run catalog
          (Optimizer.Planner.lower catalog q).Optimizer.Planner.plan
      in
      Relation.equal_bag expected got)

(* A nested-loop join over a restricted stored inner, in every pool and
   mode: Hybrid rescans the stored table with the restriction as a join
   residual when it fits the pool (3 pages rarely, 8 sometimes, 256
   always), otherwise the filtered inner is written.  The inner join is
   Q5's TEMP2 (MAX under '<'); the left-outer join is NEST-JA2's COUNT
   program under '<' with TEMP2, the restriction of SUPPLY, read in place
   by TEMP3 instead — the restriction then must pad, not drop, a TEMP1
   row.  NULL-dense data; rows compared as bags with nested iteration. *)
let fold_restricted_temp2 (p : Optimizer.Program.t) =
  let open Sql.Ast in
  match p.temps with
  | [ t1; t2; t3 ] ->
      let rebind = function
        | Col c -> Col { c with table = Some t2.name }
        | s -> s
      in
      let restriction =
        List.map
          (function Cmp (a, op, b) -> Cmp (rebind a, op, rebind b) | p -> p)
          t2.def.where
      in
      let from =
        List.map
          (fun (f : from_item) ->
            if f.rel = t2.name then from ~alias:t2.name "SUPPLY" else f)
          t3.def.from
      in
      let def = { t3.def with from; where = t3.def.where @ restriction } in
      { p with temps = [ t1; { t3 with def } ] }
  | _ -> failwith "expected NEST-JA2's three COUNT temps"

let prop_restricted_nl_inner =
  QCheck2.Test.make
    ~name:"restricted nested-loop inner, pools 3/8/256, both modes = nested \
           iteration"
    ~count:60 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let key_range = G.int_in rng 1 5 in
      let tables =
        [
          ("PARTS", G.parts ~null_pct:40 rng ~n:(G.int_in rng 1 8) ~key_range);
          ( "SUPPLY",
            G.supply ~null_pct:40 rng ~n:(G.int_in rng 0 30) ~key_range );
        ]
      in
      let k = G.int_in rng 0 9 in
      let text agg =
        Printf.sprintf
          "SELECT PNUM FROM PARTS WHERE QOH = (SELECT %s FROM SUPPLY WHERE \
           SUPPLY.PNUM < PARTS.PNUM AND QUAN <= %d)"
          agg k
      in
      List.for_all
        (fun (agg, fold) ->
          List.for_all
            (fun (buffer_pages, mode) ->
              let catalog = G.catalog_of ~buffer_pages tables in
              let q = F.parse_analyzed catalog (text agg) in
              let program =
                fold
                  (Optimizer.Nest_g.transform
                     ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
                     q)
              in
              let got = Optimizer.Planner.run_program ~mode catalog program in
              Optimizer.Planner.drop_temps catalog program;
              (* the pool that holds everything takes the stored form *)
              let stored_form () =
                List.exists
                  (fun (e : Optimizer.Planner.explained) ->
                    Astring.String.is_infix ~affix:"residual TEMP" e.seg_text
                    || Astring.String.is_infix ~affix:"residual SUPPLY"
                         e.seg_text)
                  (Optimizer.Planner.explain_segments ~mode catalog
                     (Optimizer.Planner.Program program))
              in
              (Relation.equal_bag (Exec.Nested_iter.run catalog q) got
              || QCheck2.Test.fail_reportf "%s, %d pages: %s"
                   (Optimizer.Planner.mode_name mode) buffer_pages (text agg))
              && (buffer_pages < 256 || mode <> Optimizer.Planner.Hybrid
                 || stored_form ()
                 || QCheck2.Test.fail_reportf "no stored inner planned: %s"
                      (text agg)))
            (List.concat_map
               (fun b ->
                 [
                   (b, Optimizer.Planner.Paper1987);
                   (b, Optimizer.Planner.Hybrid);
                 ])
               [ 3; 8; 256 ]))
        [ ("MAX(QUAN)", Fun.id); ("COUNT(SHIPDATE)", fold_restricted_temp2) ])

(* Hybrid pipelines each temp that one FROM item reads into that reader.
   The four shapes the fit workload transforms (JA-count, JA-max-lt, NOT
   EXISTS, >= ALL) and a keyed NEST-JA2 program, whose TEMP1 both TEMP2
   and TEMP3 read, run under Hybrid in pools of 3, 8, 256 and 2048 pages
   and give nested iteration's rows (a rewrite refused over NULL-bearing
   data is skipped).  In the 2048-page pool, which holds everything, each
   single-use temp's segment reads "pipelined into" and its plan sits in
   its reader's under [Rename as NAME]; a temp read twice keeps its own
   plan, and the run writes exactly the pages of the temps it keeps. *)
let prop_pipelined_temps =
  let module P = Optimizer.Planner in
  let module Program = Optimizer.Program in
  let infix affix s = Astring.String.is_infix ~affix s in
  QCheck2.Test.make
    ~name:"pipelined temps, pools 3/8/256/2048, hybrid = nested iteration"
    ~count:40 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let key_range = G.int_in rng 1 5 in
      let null_pct = G.pick rng [ 0; 0; 30 ] in
      let tables =
        [
          ("PARTS", G.parts ~null_pct rng ~n:(G.int_in rng 1 10) ~key_range);
          ("SUPPLY", G.supply ~null_pct rng ~n:(G.int_in rng 0 30) ~key_range);
        ]
      in
      let date = G.pick rng [ "1-1-76"; "1-1-79"; "1-1-83" ] in
      let corr = "SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '" ^ date ^ "'" in
      let cases =
        [
          ( None,
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM \
             SUPPLY WHERE " ^ corr ^ ")" );
          ( None,
            Printf.sprintf
              "SELECT PNUM FROM PARTS WHERE PNUM <= 3 AND QOH = (SELECT \
               MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM AND QUAN \
               <= %d)"
              (G.int_in rng 0 9) );
          ( None,
            "SELECT PNUM FROM PARTS WHERE NOT EXISTS (SELECT PNUM FROM SUPPLY \
             WHERE " ^ corr ^ ")" );
          ( None,
            "SELECT PNUM FROM PARTS WHERE QOH >= ALL (SELECT QUAN FROM SUPPLY \
             WHERE " ^ corr ^ ")" );
          ( Some (fun (_ : Program.key_probe) -> Some "forced"),
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(*) FROM SUPPLY \
             WHERE " ^ corr ^ ")" );
        ]
      in
      let agrees ~buffer_pages (probe_keys, text) =
        let catalog = G.catalog_of ~buffer_pages tables in
        Catalog.create_index catalog "SUPPLY" ~column:"PNUM";
        let q = F.parse_analyzed catalog text in
        match
          Optimizer.Nest_g.transform ?probe_keys
            ~nullable:(Catalog.column_nullable catalog)
            ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
            q
        with
        | exception Program.Refused _ -> true
        | program ->
            let fail fmt =
              QCheck2.Test.fail_reportf
                ("%d pages: %s@.%s@." ^^ fmt) buffer_pages text
                (Program.to_string program)
            in
            let single_use (t : Program.temp) =
              List.length (Program.readers program t.name) = 1
            in
            let pager = Catalog.pager catalog in
            let before = Storage.Pager.snapshot pager in
            let got = P.run_program ~mode:P.Hybrid catalog program in
            let writes =
              (Storage.Pager.diff_since pager before).physical_writes
            in
            let kept_pages =
              List.fold_left
                (fun n (t : Program.temp) ->
                  if single_use t then n else n + Catalog.pages catalog t.name)
                0 program.temps
            in
            P.drop_temps catalog program;
            let inlined () =
              let segments =
                P.explain_segments ~mode:P.Hybrid catalog (P.Program program)
              in
              let text_of label =
                (List.find (fun (e : P.explained) -> e.seg_label = label)
                   segments)
                  .seg_text
              in
              List.for_all
                (fun (t : Program.temp) ->
                  let own = text_of ("temp " ^ t.name) in
                  if single_use t then
                    (infix "pipelined into" own
                    && List.exists
                         (fun (e : P.explained) ->
                           infix ("Rename as " ^ t.name) e.seg_text)
                         segments)
                    || fail "%s is not inlined" t.name
                  else
                    (not (infix "pipelined into" own))
                    || fail "%s, read twice, is pipelined" t.name)
                program.temps
            in
            (Relation.equal_bag (Exec.Nested_iter.run catalog q) got
            || fail "rows differ")
            && (probe_keys = None
               || List.exists (fun t -> not (single_use t)) program.temps
               || fail "no temp read twice")
            && (buffer_pages < 2048 || inlined ())
            && (buffer_pages < 2048 || writes = kept_pages
               || fail "%d pages written, %d kept" writes kept_pages)
      in
      List.for_all
        (fun buffer_pages -> List.for_all (agrees ~buffer_pages) cases)
        [ 3; 8; 256; 2048 ])

(* Pretty-printer fixpoint: parse (pp (parse text)) = parse text for every
   generated query shape. *)
let prop_pp_parse_fixpoint =
  QCheck2.Test.make ~name:"pp/parse fixpoint on generated queries" ~count:200
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let make = G.[ n_query; a_query; j_query; ja_query; deep_query; flat_query ] in
      let text = (List.nth make (G.int_in rng 0 (List.length make - 1))) rng in
      match Sql.Parser.parse text with
      | Error _ -> false
      | Ok q -> (
          let printed = Sql.Pp.query_to_string q in
          match Sql.Parser.parse printed with
          | Error _ -> false
          | Ok q' -> Sql.Ast.equal_query q q'))

(* Cost model sanity over random parameters. *)
let prop_cost_model =
  QCheck2.Test.make ~name:"cost model: positivity and rounding dominance"
    ~count:200
    QCheck2.Gen.(
      tup4 (int_range 2 200) (int_range 2 200) (int_range 3 12)
        (int_range 1 500))
    (fun (pi, pj, b, fi_ni) ->
      let pi = float_of_int pi and pj = float_of_int pj in
      let fi_ni = float_of_int fi_ni in
      let exact = Optimizer.Cost.nest_nj_merge ~b ~pi ~pj () in
      let ceiled =
        Optimizer.Cost.nest_nj_merge ~rounding:Optimizer.Cost.Ceil ~b ~pi ~pj ()
      in
      let nested = Optimizer.Cost.nested_iteration ~pi ~pj ~fi_ni in
      exact > 0. && ceiled >= exact && nested >= pi
      && Optimizer.Cost.sort_cost ~b 1. = 0.
      && Optimizer.Cost.sort_cost ~b (pj +. 1.)
         >= Optimizer.Cost.sort_cost ~b pj)

let suites =
  [
    ( "properties.equivalence",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_type_n;
          prop_type_a;
          prop_type_j;
          prop_type_ja;
          prop_deep;
          prop_sysr_agrees;
          prop_join_methods_agree;
          prop_planner_flat;
          prop_restricted_nl_inner;
          prop_pipelined_temps;
          prop_pp_parse_fixpoint;
          prop_cost_model;
        ] );
  ]

(* Randomized equivalence properties for the physical operators: the three
   join algorithms must agree with each other (inner and left-outer, NULL
   keys, many-to-many duplicate keys), and the hash operators must agree
   with their sort-based counterparts.  Inputs come from
   [Workload.Gen.keyed_relation]; results are compared as bags. *)

module Value = Relalg.Value
module Row = Relalg.Row
module Schema = Relalg.Schema
module Relation = Relalg.Relation
module Iterator = Exec.Iterator
module Pager = Storage.Pager
module Heap_file = Storage.Heap_file
module G = Workload.Gen

let fresh_pager () = Pager.create ~buffer_pages:4 ~page_bytes:32 ()

let bag it = List.sort Row.compare (Iterator.to_rows it)

(* External sort, read back; [distinct] is the sort-based DISTINCT. *)
let sort pager ?dedup ~key it =
  Iterator.scan (Iterator.sort_run pager ?dedup ~key it)

let distinct pager (it : Iterator.t) =
  sort pager ~dedup:Storage.External_sort.Drop_duplicates
    ~key:(List.init (Schema.arity it.schema) Fun.id)
    it

(* The hash operators' one implementation, [Vec]'s, run on tuple inputs
   through the adapters, as the tuple engine runs it. *)
let via_vec op it = Exec.Vec.to_tuple (op (Exec.Vec.of_tuple it))

let hash_join ?outer_join ?null_safe ~left_key ~right_key l r =
  Exec.Vec.to_tuple
    (Exec.Vec.hash_join ?outer_join ?null_safe ~left_key ~right_key
       (Exec.Vec.of_tuple l) (Exec.Vec.of_tuple r))

let check_bags name a b =
  if a <> b then begin
    Fmt.epr "@.%s mismatch:@.%a@.vs@.%a@." name
      Fmt.(list ~sep:(any "; ") Row.pp)
      a
      Fmt.(list ~sep:(any "; ") Row.pp)
      b;
    false
  end
  else true

(* Random left/right inputs sharing a key range, so keys collide across the
   two sides (many-to-many) but some stay unmatched (outer-join padding). *)
let join_inputs rng =
  let key_range = G.int_in rng 1 5 in
  let left =
    G.keyed_relation rng ~rel:"L" ~n:(G.int_in rng 0 30) ~key_range
      ~null_pct:15
  in
  let right =
    G.keyed_relation rng ~rel:"R" ~n:(G.int_in rng 0 30) ~key_range
      ~null_pct:15
  in
  (left, right)

(* Plan's compiled join conditions: the same inputs as [Exec.Plan.Join]
   nodes under every method and both engines, with a key condition, a
   random extra non-equality condition and a random residual, against the
   cross product filtered by [Truth.conjunction] of [Eval.cmp_values] (an
   unmatched left row padded for a left-outer join). *)
let plan_joins_agree rng ~outer left right =
  let module P = Exec.Plan in
  let open Sql.Ast in
  let pick xs = List.nth xs (G.int_in rng 0 (List.length xs - 1)) in
  let col rel name = { table = Some rel; column = name } in
  (* an operand as a plan scalar and as a reader of the (left, right) pair *)
  let operand () =
    match G.int_in rng 0 4 with
    | 0 -> (Col (col "L" "K"), fun l _ -> Row.get l 0)
    | 1 -> (Col (col "L" "V"), fun l _ -> Row.get l 1)
    | 2 -> (Col (col "R" "K"), fun _ r -> Row.get r 0)
    | 3 -> (Col (col "R" "V"), fun _ r -> Row.get r 1)
    | _ ->
        let v = Value.Int (G.int_in rng 0 9) in
        (Lit v, fun _ _ -> v)
  in
  (* a condition on one column of both sides *)
  let on name i op =
    ( (col "L" name, op, col "R" name),
      fun l r -> Exec.Eval.cmp_values op (Row.get l i) (Row.get r i) )
  in
  let key_op = pick [ Eq; Eq_null ] in
  let extra_op = pick [ Ne; Lt; Ge; Eq_null ] in
  let extra = if Random.State.bool rng then [ on "V" 1 extra_op ] else [] in
  let cond = on "K" 0 key_op :: extra in
  let residual =
    List.init (G.int_in rng 0 2) (fun _ ->
        let a, fa = operand () and b, fb = operand () in
        let op = pick [ Eq; Ne; Lt; Le; Gt; Ge; Eq_null ] in
        (Cmp (a, op, b), fun l r -> Exec.Eval.cmp_values op (fa l r) (fb l r)))
  in
  let holds l r =
    let test (_, f) = f l r in
    Relalg.Truth.conjunction (List.map test cond @ List.map test residual)
    = Relalg.Truth.True
  in
  let expected =
    List.sort Row.compare
      (List.concat_map
         (fun l ->
           match
             List.filter_map
               (fun r -> if holds l r then Some (Row.append l r) else None)
               (Relation.rows right)
           with
           | [] when outer -> [ Row.append l (Row.nulls 2) ]
           | matches -> matches)
         (Relation.rows left))
  in
  let catalog =
    G.catalog_of ~buffer_pages:4 ~page_bytes:32 [ ("L", left); ("R", right) ]
  in
  let join method_ ~sorted =
    let input rel =
      if sorted then P.Sort ([ col rel "K" ], P.Scan rel) else P.Scan rel
    in
    P.Join
      {
        method_;
        kind = (if outer then P.Left_outer else P.Inner);
        cond = List.map fst cond;
        residual = List.map fst residual;
        left = input "L";
        right = input "R";
      }
  in
  List.for_all
    (fun (name, method_, sorted) ->
      let plan = join method_ ~sorted in
      let rows run = List.sort Row.compare (Relation.rows (run catalog plan)) in
      check_bags ("plan " ^ name ^ " (tuple)") (rows P.run) expected
      && check_bags ("plan " ^ name ^ " (vectorized)") (rows P.run_vec)
           expected)
    [
      ("nested-loop", P.Nested_loop, false);
      ("hash", P.Hash, false);
      ("sort-merge", P.Sort_merge, true);
    ]

(* The three joins on key column 0 (equality, SQL semantics: NULL keys never
   join).  The stored right side and the sorts go through a tiny pool, so
   external-sort spill paths run too. *)
let trial_join ~outer seed =
  let rng = Random.State.make [| seed |] in
  let left, right = join_inputs rng in
  let pager = fresh_pager () in
  let theta l r = Exec.Eval.cmp_values Sql.Ast.Eq (Row.get l 0) (Row.get r 0) in
  let nl =
    let right_heap = Heap_file.of_relation pager right in
    bag
      (Iterator.nested_loop_join ~outer_join:outer ~theta
         (Iterator.of_relation left) right_heap)
  in
  let merge =
    let sorted rel =
      sort pager ~key:[ 0 ] (Iterator.of_relation rel)
    in
    bag
      (Iterator.merge_join ~outer_join:outer ~left_key:[ 0 ] ~right_key:[ 0 ]
         (sorted left) (sorted right))
  in
  let hash =
    bag
      (hash_join ~outer_join:outer ~left_key:[ 0 ] ~right_key:[ 0 ]
         (Iterator.of_relation left) (Iterator.of_relation right))
  in
  check_bags "merge vs nested-loop" merge nl
  && check_bags "hash vs merge" hash merge
  && plan_joins_agree rng ~outer left right

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let prop_joins_inner =
  QCheck2.Test.make ~name:"nl = merge = hash (inner, NULL/dup keys)"
    ~count:200 seed_gen (trial_join ~outer:false)

let prop_joins_outer =
  QCheck2.Test.make ~name:"nl = merge = hash (left-outer, NULL/dup keys)"
    ~count:200 seed_gen (trial_join ~outer:true)

(* Null-safe (<=>) key columns: NULL must match NULL in every algorithm.
   Reference: nested loop with an Eq_null theta. *)
let trial_join_null_safe ~outer seed =
  let rng = Random.State.make [| seed |] in
  let left, right = join_inputs rng in
  let pager = fresh_pager () in
  let theta l r =
    Exec.Eval.cmp_values Sql.Ast.Eq_null (Row.get l 0) (Row.get r 0)
  in
  let nl =
    let right_heap = Heap_file.of_relation pager right in
    bag
      (Iterator.nested_loop_join ~outer_join:outer ~theta
         (Iterator.of_relation left) right_heap)
  in
  let merge =
    let sorted rel =
      sort pager ~key:[ 0 ] (Iterator.of_relation rel)
    in
    bag
      (Iterator.merge_join ~outer_join:outer ~null_safe:[ true ]
         ~left_key:[ 0 ] ~right_key:[ 0 ] (sorted left) (sorted right))
  in
  let hash =
    bag
      (hash_join ~outer_join:outer ~null_safe:[ true ]
         ~left_key:[ 0 ] ~right_key:[ 0 ] (Iterator.of_relation left)
         (Iterator.of_relation right))
  in
  check_bags "null-safe merge vs nested-loop" merge nl
  && check_bags "null-safe hash vs merge" hash merge

let prop_joins_null_safe_inner =
  QCheck2.Test.make ~name:"nl = merge = hash (<=> keys, inner)" ~count:200
    seed_gen
    (trial_join_null_safe ~outer:false)

let prop_joins_null_safe_outer =
  QCheck2.Test.make ~name:"nl = merge = hash (<=> keys, left-outer)"
    ~count:200 seed_gen
    (trial_join_null_safe ~outer:true)

(* Mixed Int/Float join keys: Value.compare unifies 1 and 1.0, so the hash
   paths must too (Value.hash sends Int through its float) — a structural
   hash table would silently drop these matches. *)
let float_keyed rng ~rel ~n ~key_range ~null_pct =
  let key () =
    if G.int_in rng 1 100 <= null_pct then Value.Null
    else
      let k = float_of_int (G.int_in rng 1 key_range) in
      Value.Float (if Random.State.bool rng then k else k +. 0.5)
  in
  Relation.of_values ~rel
    [ ("K", Value.Tfloat); ("V", Value.Tint) ]
    (List.init n (fun _ -> [ key (); Value.Int (G.int_in rng 0 9) ]))

let trial_join_mixed_types seed =
  let rng = Random.State.make [| seed |] in
  let key_range = G.int_in rng 1 5 in
  let left =
    G.keyed_relation rng ~rel:"L" ~n:(G.int_in rng 0 30) ~key_range
      ~null_pct:15
  in
  let right =
    float_keyed rng ~rel:"R" ~n:(G.int_in rng 0 30) ~key_range ~null_pct:15
  in
  let pager = fresh_pager () in
  let theta l r = Exec.Eval.cmp_values Sql.Ast.Eq (Row.get l 0) (Row.get r 0) in
  let nl =
    let right_heap = Heap_file.of_relation pager right in
    bag
      (Iterator.nested_loop_join ~theta (Iterator.of_relation left) right_heap)
  in
  let merge =
    let sorted rel =
      sort pager ~key:[ 0 ] (Iterator.of_relation rel)
    in
    bag
      (Iterator.merge_join ~left_key:[ 0 ] ~right_key:[ 0 ] (sorted left)
         (sorted right))
  in
  let hash =
    bag
      (hash_join ~left_key:[ 0 ] ~right_key:[ 0 ]
         (Iterator.of_relation left) (Iterator.of_relation right))
  in
  check_bags "mixed-type merge vs nested-loop" merge nl
  && check_bags "mixed-type hash vs merge" hash merge

let prop_joins_mixed_types =
  QCheck2.Test.make ~name:"nl = merge = hash (Int vs Float keys)" ~count:200
    seed_gen trial_join_mixed_types

(* Hash dedup vs sort-based DISTINCT: same set of rows (the sorted one is
   already in order; the hash one preserves first-occurrence order). *)
let trial_distinct seed =
  let rng = Random.State.make [| seed |] in
  let rel =
    G.keyed_relation rng ~rel:"T" ~n:(G.int_in rng 0 60)
      ~key_range:(G.int_in rng 1 4) ~null_pct:20
  in
  let sorted = bag (distinct (fresh_pager ()) (Iterator.of_relation rel)) in
  let hashed = bag (via_vec Exec.Vec.hash_distinct (Iterator.of_relation rel)) in
  check_bags "hash_distinct vs distinct" hashed sorted

let prop_distinct =
  QCheck2.Test.make ~name:"hash_distinct = sort-based distinct" ~count:200
    seed_gen trial_distinct

(* Hash aggregation vs sorted-stream aggregation, grouping by the nullable
   K and aggregating the nullable V with every integer aggregate.  (AVG is
   exercised separately: float summation order differs between a sorted and
   an unsorted scan.) *)
let agg_specs =
  let v = { Sql.Ast.table = None; column = "V" } in
  [
    { Iterator.fn = Sql.Ast.Count_star; arg = None };
    { Iterator.fn = Sql.Ast.Count v; arg = Some 1 };
    { Iterator.fn = Sql.Ast.Sum v; arg = Some 1 };
    { Iterator.fn = Sql.Ast.Max v; arg = Some 1 };
    { Iterator.fn = Sql.Ast.Min v; arg = Some 1 };
  ]

let agg_schema ~with_key =
  Schema.of_columns ~rel:"agg"
    ((if with_key then [ ("K", Value.Tint) ] else [])
    @ [
        ("CNT_STAR", Value.Tint); ("CNT", Value.Tint); ("SUM", Value.Tint);
        ("MAX", Value.Tint); ("MIN", Value.Tint);
      ])

let trial_group_agg seed =
  let rng = Random.State.make [| seed |] in
  let rel =
    G.keyed_relation rng ~rel:"T" ~n:(G.int_in rng 0 60)
      ~key_range:(G.int_in rng 1 4) ~null_pct:20
  in
  let grouped =
    let schema = agg_schema ~with_key:true in
    let sorted =
      bag
        (Iterator.group_agg_sorted ~group_key:[ 0 ] ~aggs:agg_specs ~schema
           (sort (fresh_pager ()) ~key:[ 0 ]
              (Iterator.of_relation rel)))
    in
    let hashed =
      bag
        (via_vec
           (Exec.Vec.hash_group_agg ~group_key:[ 0 ] ~aggs:agg_specs ~schema)
           (Iterator.of_relation rel))
    in
    check_bags "hash_group_agg vs group_agg_sorted" hashed sorted
  in
  let global =
    (* Empty group key: exactly one row either way, even on empty input. *)
    let schema = agg_schema ~with_key:false in
    let sorted =
      bag
        (Iterator.group_agg_sorted ~group_key:[] ~aggs:agg_specs ~schema
           (Iterator.of_relation rel))
    in
    let hashed =
      bag
        (via_vec
           (Exec.Vec.hash_group_agg ~group_key:[] ~aggs:agg_specs ~schema)
           (Iterator.of_relation rel))
    in
    List.length hashed = 1 && check_bags "global hash_group_agg" hashed sorted
  in
  grouped && global

let prop_group_agg =
  QCheck2.Test.make ~name:"hash_group_agg = group_agg_sorted" ~count:200
    seed_gen trial_group_agg

(* ------------------------------------------------------------------ *)
(* Planner modes                                                       *)
(* ------------------------------------------------------------------ *)

module Catalog = Storage.Catalog
module F = Workload.Fixtures
open Optimizer

(* Hybrid planning must never change results — only plans.  Same data and
   query, one catalog per mode (temps would collide otherwise). *)
let trial_modes seed =
  let make_catalog () =
    let rng = Random.State.make [| seed |] in
    G.parts_supply_catalog rng
      ~buffer_pages:64 (* ample pool: hash paths eligible *)
      ~n_parts:(G.int_in rng 1 12)
      ~n_supply:(G.int_in rng 0 25)
      ~key_range:(G.int_in rng 1 8)
  in
  let query_of rng = G.ja_query rng in
  let run mode =
    let catalog = make_catalog () in
    let rng = Random.State.make [| seed + 1 |] in
    let q = F.parse_analyzed catalog (query_of rng) in
    let program =
      Nest_g.transform ~fresh:(fun () -> Catalog.fresh_temp_name catalog) q
    in
    Fixtures.run_verified ~mode catalog program
  in
  Relation.equal_bag (run Planner.Paper1987) (run Planner.Hybrid)

let prop_modes =
  QCheck2.Test.make ~name:"hybrid mode = paper mode results (random JA)"
    ~count:100 seed_gen trial_modes

(* Directed checks that Hybrid actually switches operators when profitable
   (and Paper1987 never does). *)
let rec plan_has pred (n : Exec.Plan.node) =
  pred n || List.exists (plan_has pred) (Exec.Plan.children n)

let big_catalog () =
  G.scaled_catalog ~buffer_pages:256 ~page_bytes:128 ~seed:3 ~n_parts:50
    ~supply_per_part:8 ()

let test_hybrid_picks_hash_agg () =
  let catalog = big_catalog () in
  let q =
    F.parse_analyzed catalog
      "SELECT PNUM, COUNT(QUAN) FROM SUPPLY GROUP BY PNUM"
  in
  let is_hash_agg = function Exec.Plan.Hash_group_agg _ -> true | _ -> false in
  let hybrid = (Planner.lower ~mode:Planner.Hybrid catalog q).Planner.plan in
  let paper = (Planner.lower catalog q).Planner.plan in
  Alcotest.(check bool) "hybrid uses hash agg" true (plan_has is_hash_agg hybrid);
  Alcotest.(check bool) "paper mode never does" false
    (plan_has is_hash_agg paper);
  Alcotest.(check bool) "same result" true
    (Relation.equal_bag (Exec.Plan.run catalog hybrid)
       (Exec.Plan.run catalog paper))

let test_hybrid_picks_hash_distinct () =
  let catalog = big_catalog () in
  let q =
    F.parse_analyzed catalog "SELECT DISTINCT PNUM FROM SUPPLY"
  in
  let is_hash_distinct = function
    | Exec.Plan.Hash_distinct _ -> true
    | _ -> false
  in
  let hybrid = (Planner.lower ~mode:Planner.Hybrid catalog q).Planner.plan in
  let paper = (Planner.lower catalog q).Planner.plan in
  Alcotest.(check bool) "hybrid uses hash distinct" true
    (plan_has is_hash_distinct hybrid);
  Alcotest.(check bool) "paper mode never does" false
    (plan_has is_hash_distinct paper);
  Alcotest.(check bool) "same result (as sets)" true
    (Relation.equal_set (Exec.Plan.run catalog hybrid)
       (Exec.Plan.run catalog paper))

let suites =
  [
    ( "operators.equivalence",
      [
        QCheck_alcotest.to_alcotest prop_joins_inner;
        QCheck_alcotest.to_alcotest prop_joins_outer;
        QCheck_alcotest.to_alcotest prop_joins_null_safe_inner;
        QCheck_alcotest.to_alcotest prop_joins_null_safe_outer;
        QCheck_alcotest.to_alcotest prop_joins_mixed_types;
        QCheck_alcotest.to_alcotest prop_distinct;
        QCheck_alcotest.to_alcotest prop_group_agg;
      ] );
    ( "operators.planner_modes",
      [
        QCheck_alcotest.to_alcotest prop_modes;
        Alcotest.test_case "hybrid picks hash agg" `Quick
          test_hybrid_picks_hash_agg;
        Alcotest.test_case "hybrid picks hash distinct" `Quick
          test_hybrid_picks_hash_distinct;
      ] );
  ]

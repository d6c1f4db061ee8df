(* The batch operators against references.

   Every plan runs batch-at-a-time where it can, so each batch operator is
   held to a reference that shares none of its code, on NULL-dense and
   empty inputs and exactly at batch boundaries (sizes 1, k*max_rows ± 1):
   filters and projections to the same predicates evaluated in memory, a
   hash plan to the paper's operator for the same node, nested-loop joins
   to nested loops in memory (rows) and row by row over the stored heaps
   (page I/O), and whole transformed programs under every planner mode and
   forced join method to one another, which routes the row operators
   through the adapters. *)

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

(* A filter or projection over a stored table, evaluated in memory:
   columns resolved by name, comparisons by [Eval.cmp_values], only True
   kept. *)
let rec in_memory catalog = function
  | Plan.Scan name ->
      let rel = Storage.Heap_file.to_relation (Catalog.heap catalog name) in
      Relation.make
        (Schema.rename_rel (Relation.schema rel) name)
        (Relation.rows rel)
  | Plan.Filter (preds, input) ->
      let rel = in_memory catalog input in
      let schema = Relation.schema rel in
      let value row = function
        | A.Lit v -> v
        | A.Col c -> Row.get row (Schema.find schema ?rel:c.A.table c.A.column)
      in
      let holds row = function
        | A.Cmp (a, op, b) ->
            Exec.Eval.cmp_values op (value row a) (value row b) = Relalg.Truth.True
        | _ -> invalid_arg "in_memory: a nested predicate"
      in
      Relation.make schema
        (List.filter (fun row -> List.for_all (holds row) preds) (Relation.rows rel))
  | Plan.Project (cols, input) ->
      let rel = in_memory catalog input in
      let schema = Relation.schema rel in
      let idxs =
        Array.of_list
          (List.map (fun c -> Schema.find schema ?rel:c.A.table c.A.column) cols)
      in
      Relation.make
        (Schema.project schema (Array.to_list idxs))
        (List.map (fun r -> Row.project_positions r idxs) (Relation.rows rel))
  | plan -> invalid_arg ("in_memory: " ^ Plan.to_string plan)

(* One plan's rows against [in_memory]'s, each on a fresh catalog. *)
let matches_in_memory ~make_catalog plan =
  let expected = in_memory (make_catalog ()) plan in
  let got = Plan.run (make_catalog ()) plan in
  Relation.equal_bag expected got
  || begin
       Fmt.epr "@.%s differs from memory@.expected:@.%a@.got:@.%a@."
         (Plan.to_string plan) Relation.pp expected Relation.pp got;
       false
     end

(* A hash plan's reference is the paper's operator for the same node,
   which no hash code runs: the join by nested loops, sort-based DISTINCT,
   GROUP BY over a sort. *)
let reference_of = function
  | Plan.Join j -> Plan.Join { j with method_ = Plan.Nested_loop }
  | Plan.Hash_distinct input -> Plan.Distinct input
  | Plan.Hash_group_agg g ->
      Plan.Group_agg
        {
          g with
          input = (if g.group_by = [] then g.input else Plan.Sort (g.group_by, g.input));
        }
  | plan -> invalid_arg ("reference_of: " ^ Plan.to_string plan)

(* A hash plan against its reference, a fresh catalog per run. *)
let matches_reference ~make_catalog plan =
  let reference = Plan.run (make_catalog ()) (reference_of plan) in
  let got = Plan.run (make_catalog ()) plan in
  Relation.equal_bag reference got
  || begin
       Fmt.epr "@.%s differs from the reference@.reference:@.%a@.got:@.%a@."
         (Plan.to_string plan) Relation.pp reference Relation.pp got;
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

let trial_of_plan check make_plan seed =
  let rng = Random.State.make [| seed |] in
  let l, r = random_tables rng in
  let plan = make_plan rng in
  check ~make_catalog:(fun () -> G.catalog_of [ ("L", l); ("R", r) ]) plan

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* [check]: [matches_in_memory], or [matches_reference] for a hash plan. *)
let prop ?(check = matches_in_memory) name ~count make_plan =
  QCheck2.Test.make ~name ~count seed_gen (trial_of_plan check make_plan)

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

let hash_distinct_plan rng =
  let cols = G.pick rng [ [ lk ]; [ lk; lv ] ] in
  Plan.Hash_distinct (Plan.Project (cols, Plan.Scan "L"))

let prop_hash_distinct =
  prop ~check:matches_reference "hash distinct = tuple distinct semantics"
    ~count:120 hash_distinct_plan

let hash_join_plan rng =
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
    }

let prop_hash_join =
  prop ~check:matches_reference
    "hash join: inner/outer, null-safe keys, residual" ~count:200
    hash_join_plan

let hash_group_plan rng =
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
  Plan.Hash_group_agg { Plan.group_by; aggs; input = Plan.Scan "L" }

let prop_hash_group_agg =
  prop ~check:matches_reference
    "hash group/agg: all aggregates over NULL-dense input" ~count:150
    hash_group_plan

(* ---------------- DATE columns ----------------------------------------- *)

(* Dates run the int kernels on their day keys.  D(K, A, B) and E(K, A)
   hold NULL-dense dates from a six-day domain, so equal keys are common;
   in a quarter of the trials one date in ten has a negative year, which
   has no exact day key and demotes its column to boxed [Values]. *)
let date_domain =
  List.map
    (fun (year, month, day) -> { Value.year; month; day })
    [ (1975, 1, 1); (1975, 1, 2); (1975, 2, 1); (1976, 1, 1); (1980, 12, 31); (1999, 6, 15) ]

let date_tables rng =
  let demote = G.int_in rng 0 3 = 0 in
  let date () =
    if G.int_in rng 1 100 <= 40 then Value.Null
    else if demote && G.int_in rng 0 9 = 0 then
      Value.Date { year = -1; month = 1; day = 1 }
    else Value.Date (G.pick rng date_domain)
  in
  let key () = if G.int_in rng 1 100 <= 20 then Value.Null else Value.Int (G.int_in rng 1 4) in
  let d =
    Relation.of_values ~rel:"D"
      [ ("K", Value.Tint); ("A", Value.Tdate); ("B", Value.Tdate) ]
      (List.init (G.int_in rng 0 60) (fun _ -> [ key (); date (); date () ]))
  in
  let e =
    Relation.of_values ~rel:"E"
      [ ("K", Value.Tint); ("A", Value.Tdate) ]
      (List.init (G.int_in rng 0 60) (fun _ -> [ key (); date () ]))
  in
  (d, e)

let date_prop ?(check = matches_in_memory) name ~count make_plan =
  QCheck2.Test.make ~name ~count seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d, e = date_tables rng in
      check
        ~make_catalog:(fun () -> G.catalog_of [ ("D", d); ("E", e) ])
        (make_plan rng))

let da = col ~table:"D" "A"
let db = col ~table:"D" "B"
let dk = col ~table:"D" "K"
let ea = col ~table:"E" "A"

let prop_date_filter =
  date_prop "dates: every operator, column-literal and column-column"
    ~count:200 (fun rng ->
      let lit = A.Lit (Value.Date (G.pick rng date_domain)) in
      let pred =
        match G.int_in rng 0 2 with
        | 0 -> A.Cmp (A.Col da, any_cmp rng, lit)
        | 1 -> A.Cmp (lit, any_cmp rng, A.Col da)
        | _ -> A.Cmp (A.Col da, any_cmp rng, A.Col db)
      in
      Plan.Filter ([ pred ], Plan.Scan "D"))

let prop_date_hash_join =
  date_prop ~check:matches_reference "dates: hash join keyed on a date"
    ~count:150 (fun rng ->
      Plan.Join
        {
          method_ = Plan.Hash;
          kind = G.pick rng [ Plan.Inner; Plan.Left_outer ];
          cond = [ (da, G.pick rng [ A.Eq; A.Eq_null ], ea) ];
          residual = [];
          left = Plan.Scan "D";
          right = Plan.Scan "E";
        })

let prop_date_distinct_group =
  date_prop ~check:matches_reference
    "dates: distinct, group-by, MIN/MAX of a date" ~count:150 (fun rng ->
      if G.int_in rng 0 1 = 0 then
        Plan.Hash_distinct
          (Plan.Project (G.pick rng [ [ da ]; [ da; dk ]; [ db; da ] ], Plan.Scan "D"))
      else
        Plan.Hash_group_agg
          {
            Plan.group_by = G.pick rng [ [ da ]; [ da; dk ]; [] ];
            aggs =
              [
                { Plan.fn = A.Count_star; out_name = "C" };
                { Plan.fn = A.Count db; out_name = "CB" };
                { Plan.fn = A.Min db; out_name = "MNB" };
                { Plan.fn = A.Max db; out_name = "MXB" };
              ];
            input = Plan.Scan "D";
          })

(* A date and the Int equal to its day key are different values: a hash
   join (and an equality filter) between them matches nothing. *)
let test_date_never_meets_int () =
  let dates = List.map (fun d -> Value.Date d) date_domain in
  let d = Relation.of_values ~rel:"D" [ ("A", Value.Tdate) ] (List.map (fun v -> [ v ]) dates) in
  let i =
    Relation.of_values ~rel:"I" [ ("K", Value.Tint) ]
      (List.map (fun d -> [ Value.Int (Value.date_key d) ]) date_domain)
  in
  let make_catalog () = G.catalog_of [ ("D", d); ("I", i) ] in
  let ik = col ~table:"I" "K" in
  List.iter
    (fun plan ->
      Alcotest.(check int) "no match" 0
        (Relation.cardinality (Plan.run (make_catalog ()) plan)))
    [
      Plan.Join
        {
          method_ = Plan.Hash;
          kind = Plan.Inner;
          cond = [ (da, A.Eq, ik) ];
          residual = [];
          left = Plan.Scan "D";
          right = Plan.Scan "I";
        };
      Plan.Filter
        ( [ A.Cmp (A.Col da, A.Eq, A.Lit (Value.Int (Value.date_key (List.hd date_domain)))) ],
          Plan.Scan "D" );
    ]

(* ---------------- randomized program-level property ------------------- *)

(* Whole transformed programs under a random planner mode and forced join
   method, against the same program under Paper1987 with sort-merge joins:
   the cells mix batch operators (hash and nested-loop joins, hash
   grouping) with row operators behind the adapters (sorts, merge joins,
   sorted grouping), and the reference runs the paper's operators. *)
let run_cell catalog program ~force ~mode =
  let result = Fixtures.run_verified ~force ~mode catalog program in
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
  | exception Optimizer.Program.Refused _ ->
      true (* not transformable: nothing to compare *)
  | program -> (
      let reference () =
        run_cell catalog program ~force:Planner.Force_merge
          ~mode:Planner.Paper1987
      in
      match (reference (), run_cell catalog program ~force ~mode) with
      | exception Planner.Planning_error _ -> true (* no plan to compare *)
      | expected, got ->
          Relation.equal_bag expected got
          || begin
               Fmt.epr "@.seed %d query %s@.sort-merge:@.%a@.cell:@.%a@." seed
                 text Relation.pp expected Relation.pp got;
               false
             end)

let prop_programs =
  QCheck2.Test.make
    ~name:"transformed programs: every mode x force cell = paper sort-merge"
    ~count:150 seed_gen trial_program

(* ---------------- batch-boundary goldens ------------------------------ *)

(* Exact sizes around the batch-capacity boundary: 0, 1, and k*max_rows ± 1
   for k = 1, 2 — derived from [Batch.max_rows] so the tests keep probing
   the boundary if the vector size is retuned.  Deterministic data so
   expected cardinalities are arithmetic, not oracle output. *)
(* ---------------- nested-loop joins ----------------------------------- *)

(* The vectorized nested-loop join rescans its stored inner chunk by chunk
   under each left row.  L and R have the same four NULL-dense columns —
   int, date, float, string — over small domains (floats half-integral,
   so an int meets its float); R's size sometimes crosses the
   [Batch.max_rows] chunk boundary.  Each trial is one plan: a random
   condition and residual mixing left, right and literal operands, inner
   or left-outer, over three inners — the stored R, a self-join on a
   renamed L and a filtered (materialized) R — or that join re-opened
   under an [Apply] whose outer row the residual reads as a parameter.
   It runs in a 3-page pool and in the default 8-page pool.  Nested loops
   in memory over the same predicates, resolved by the test itself, check
   the rows; a plain join's logical reads, physical reads and writes are
   held to nested loops run row by row over the stored heaps (below). *)
let nl_columns =
  [ ("K", Value.Tint); ("D", Value.Tdate); ("F", Value.Tfloat); ("S", Value.Tstr) ]

let nl_value rng (ty : Value.ty) =
  if G.int_in rng 1 100 <= 30 then Value.Null
  else
    match ty with
    | Value.Tint -> Value.Int (G.int_in rng 1 4)
    | Value.Tfloat -> Value.Float (float_of_int (G.int_in rng 2 8) /. 2.)
    | Value.Tdate -> Value.Date (G.pick rng date_domain)
    | Value.Tstr -> Value.Str (G.pick rng [ "a"; "b"; "c" ])

let nl_relation rng rel n =
  Relation.of_values ~rel nl_columns
    (List.init n (fun _ -> List.map (fun (_, ty) -> nl_value rng ty) nl_columns))

(* A column of [rel] and a column of [rel'] that compare: the same type,
   or an int against a float. *)
let comparable_pair rng rel rel' =
  let c, c' =
    G.pick rng [ ("K", "K"); ("D", "D"); ("F", "F"); ("S", "S"); ("K", "F"); ("F", "K") ]
  in
  (col ~table:rel c, col ~table:rel' c')

let nl_literal rng (c : A.col_ref) =
  let ty = List.assoc c.A.column nl_columns in
  match nl_value rng ty with Value.Null -> nl_value rng ty | v -> v

(* A residual conjunct: left-right, left-literal, literal-right,
   right-right or left-left. *)
let nl_residual rng ~l ~r =
  match G.int_in rng 0 4 with
  | 0 ->
      let a, b = comparable_pair rng l r in
      A.Cmp (A.Col a, any_cmp rng, A.Col b)
  | 1 ->
      let a, _ = comparable_pair rng l r in
      A.Cmp (A.Col a, any_cmp rng, A.Lit (nl_literal rng a))
  | 2 ->
      let _, b = comparable_pair rng l r in
      A.Cmp (A.Lit (nl_literal rng b), any_cmp rng, A.Col b)
  | 3 ->
      let a, b = comparable_pair rng r r in
      A.Cmp (A.Col a, any_cmp rng, A.Col b)
  | _ ->
      let a, b = comparable_pair rng l l in
      A.Cmp (A.Col a, any_cmp rng, A.Col b)

(* The three inners of a join whose left side is [l]: a stored table,
   a renamed stored table (a self-join when it renames [l]) and a filtered
   table, which is materialized; each with the name its columns carry. *)
let nl_inners rng ~l =
  let filtered name input =
    Plan.Filter
      ( [ A.Cmp (A.Col (col ~table:name "K"), any_cmp rng, A.Lit (Value.Int (G.int_in rng 1 4))) ],
        input )
  in
  if l = "L" then
    [ (Plan.Scan "R", "R"); (Plan.Rename ("L2", Plan.Scan "L"), "L2");
      (filtered "R" (Plan.Scan "R"), "R") ]
  else
    [ (Plan.Rename ("L2", Plan.Scan "L"), "L2"); (Plan.Rename ("R2", Plan.Scan "R"), "R2");
      (filtered "R2" (Plan.Rename ("R2", Plan.Scan "R")), "R2") ]

(* A nested-loop join of [left] (columns of [l]) with one of its inners. *)
let nl_join rng ~l ~left ~extra_residual =
  let right, r = G.pick rng (nl_inners rng ~l) in
  let cond =
    List.init (G.int_in rng 0 2) (fun _ ->
        let a, b = comparable_pair rng l r in
        (a, any_cmp rng, b))
  in
  let residual =
    List.init (G.int_in rng 0 2) (fun _ -> nl_residual rng ~l ~r) @ extra_residual r
  in
  Plan.Join
    {
      method_ = Plan.Nested_loop;
      kind = G.pick rng [ Plan.Inner; Plan.Left_outer ];
      cond;
      residual;
      left;
      right;
    }

let dummy_subquery =
  {
    A.distinct = false;
    select = [ A.Sel_star ];
    from = [ A.from "R" ];
    where = [];
    group_by = [];
    order_by = [];
    span = A.no_span;
  }

(* Under an [Apply] over L: per outer row (or key), the inner joins R with
   one of its inners, a residual conjunct reading the outer row's columns
   as parameters, and the outer row is kept when its K is at least the
   number of pairs. *)
let nl_apply rng =
  let join =
    nl_join rng ~l:"R" ~left:(Plan.Scan "R") ~extra_residual:(fun r ->
        let a, b = comparable_pair rng "L" r in
        [ A.Cmp (A.Col a, any_cmp rng, A.Col b) ])
  in
  Plan.Apply
    {
      mode = G.pick rng [ Plan.Per_row; Plan.Per_key ];
      preds =
        [
          ( A.Cmp_subq (A.Col lk, A.Ge, dummy_subquery),
            Some
              {
                Plan.keys = [ lk; col ~table:"L" "D" ];
                inner =
                  Plan.Hash_group_agg
                    {
                      Plan.group_by = [];
                      aggs = [ { Plan.fn = A.Count_star; out_name = "N" } ];
                      input = join;
                    };
              } );
        ];
      outer = Plan.Scan "L";
    }

(* A plain join's predicates as one test on a joined row: 3VL, as [Eval],
   with columns resolved by name on the joined schema. *)
let nl_holds joined ~cond ~residual =
  let value row = function
    | A.Lit v -> v
    | A.Col c -> Row.get row (Schema.find joined ?rel:c.A.table c.A.column)
  in
  let preds =
    List.map (fun (a, op, b) -> A.Cmp (A.Col a, op, A.Col b)) cond @ residual
  in
  fun row ->
    List.for_all
      (function
        | A.Cmp (a, op, b) ->
            Exec.Eval.cmp_values op (value row a) (value row b) = Relalg.Truth.True
        | _ -> false)
      preds

(* A join input over the in-memory relations: a table, renamed or
   filtered by one comparison with a literal. *)
let rec nl_input (rels : (string * Relation.t) list) = function
  | Plan.Scan n ->
      let rel = List.assoc n rels in
      Relation.make (Schema.rename_rel (Relation.schema rel) n) (Relation.rows rel)
  | Plan.Rename (a, input) ->
      let rel = nl_input rels input in
      Relation.make (Schema.rename_rel (Relation.schema rel) a) (Relation.rows rel)
  | Plan.Filter ([ A.Cmp (A.Col c, op, A.Lit v) ], input) ->
      let rel = nl_input rels input in
      let i = Schema.find (Relation.schema rel) ?rel:c.A.table c.A.column in
      Relation.make (Relation.schema rel)
        (List.filter
           (fun row -> Exec.Eval.cmp_values op (Row.get row i) v = Relalg.Truth.True)
           (Relation.rows rel))
  | plan -> invalid_arg ("nl_input: " ^ Plan.to_string plan)

(* The rows of a nested-loop join over the in-memory relations: every
   pair the predicates hold for, left-outer padding included; [outer] is
   the schema and row of an enclosing [Apply], which the predicates may
   read. *)
let reference_nl_join ?(outer = (Schema.make [], [||])) rels plan =
  match plan with
  | Plan.Join { kind; cond; residual; left; right; _ } ->
      let lrel = nl_input rels left and rrel = nl_input rels right in
      let joined = Schema.append (Relation.schema lrel) (Relation.schema rrel) in
      let oschema, orow = outer in
      let holds = nl_holds (Schema.append oschema joined) ~cond ~residual in
      let pad = Row.nulls (Schema.arity (Relation.schema rrel)) in
      Relation.make joined
        (List.concat_map
           (fun l ->
             match
               List.filter
                 (fun row -> holds (Row.append orow row))
                 (List.map (Row.append l) (Relation.rows rrel))
             with
             | [] when kind = Plan.Left_outer -> [ Row.append l pad ]
             | matches -> matches)
           (Relation.rows lrel))
  | _ -> invalid_arg "reference_nl_join"

(* The rows of a plan [nl_apply] or [count_per_row] makes, in memory: an
   outer row of L is kept when its K is at least the number of rows of the
   inner join, its predicates reading the row's columns as parameters —
   per key, the columns of the first row with the same key columns. *)
let reference_nl_apply rels plan =
  match plan with
  | Plan.Apply
      {
        mode;
        preds = [ (_, Some { Plan.keys; inner = Plan.Hash_group_agg { input; _ } }) ];
        _;
      } ->
      let lrel = nl_input rels (Plan.Scan "L") in
      let schema = Relation.schema lrel in
      let key o =
        Array.of_list
          (List.map (fun c -> Row.get o (Schema.find schema ?rel:c.A.table c.A.column)) keys)
      in
      let bound o =
        match mode with
        | Plan.Per_row -> o
        | Plan.Per_key ->
            List.find (fun o' -> Row.compare (key o') (key o) = 0) (Relation.rows lrel)
      in
      Relation.make schema
        (List.filter
           (fun o ->
             let n =
               Relation.cardinality
                 (reference_nl_join ~outer:(schema, bound o) rels input)
             in
             Exec.Eval.cmp_values A.Ge (Row.get o 0) (Value.Int n) = Relalg.Truth.True)
           (Relation.rows lrel))
  | _ -> invalid_arg "reference_nl_apply"

(* The page requests of a plain join run a row at a time: the left heap
   scanned row by row ([Heap_file.scan]), the stored inner rescanned row by
   row under each left row, a filtered inner first materialized into a new
   heap from a row-by-row scan.  Returns the counters. *)
let row_nl_join_io catalog plan =
  match plan with
  | Plan.Join { left = Plan.Scan ln; right; _ } ->
      let module H = Storage.Heap_file in
      let pager = Catalog.pager catalog in
      let before = Pager.snapshot pager in
      let drain next = while Option.is_some (next ()) do () done in
      let left = H.scan (Catalog.heap catalog ln) in
      let inner =
        match right with
        | Plan.Scan n | Plan.Rename (_, Plan.Scan n) -> Catalog.heap catalog n
        | Plan.Filter ([ A.Cmp (A.Col c, op, A.Lit v) ], Plan.Scan n) ->
            let stored = Catalog.heap catalog n in
            let i = Schema.find (H.schema stored) c.A.column in
            let heap = H.create pager (H.schema stored) in
            let next = H.scan stored in
            let rec copy () =
              match next () with
              | None -> H.flush heap
              | Some row ->
                  if Exec.Eval.cmp_values op (Row.get row i) v = Relalg.Truth.True
                  then H.append heap row;
                  copy ()
            in
            copy ();
            heap
        | _ -> invalid_arg "row_nl_join_io"
      in
      let rec loop () =
        match left () with
        | None -> ()
        | Some _ ->
            drain (H.scan inner);
            loop ()
      in
      loop ();
      let d = Pager.diff_since pager before in
      [ d.Pager.logical_reads; d.Pager.physical_reads; d.Pager.physical_writes ]
  | _ -> invalid_arg "row_nl_join_io"

(* [input] re-opened under a per-row [Apply] over L: the outer row is
   kept when its K is at least COUNT-star of [input]. *)
let count_per_row input =
  Plan.Apply
    {
      mode = Plan.Per_row;
      preds =
        [
          ( A.Cmp_subq (A.Col lk, A.Ge, dummy_subquery),
            Some
              {
                Plan.keys = [ lk ];
                inner =
                  Plan.Hash_group_agg
                    {
                      Plan.group_by = [];
                      aggs = [ { Plan.fn = A.Count_star; out_name = "N" } ];
                      input;
                    };
              } );
        ];
      outer = Plan.Scan "L";
    }

(* Files and disk pages a run of [plan] leaves behind, and its rows. *)
let left_behind rels run plan =
  let catalog = G.catalog_of rels in
  let pager = Catalog.pager catalog in
  let files = Pager.file_count pager and pages = Pager.disk_pages pager in
  let rows = run catalog plan in
  (rows, Pager.file_count pager - files, Pager.disk_pages pager - pages)

(* R: 20 rows of K = 1..4, 20 pages under the default page size. *)
let reopen_relations () =
  let rng = Random.State.make [| 24 |] in
  let r =
    Relation.of_values ~rel:"R" nl_columns
      (List.init 20 (fun i ->
           [ Value.Int (1 + (i mod 4)); Value.Null; Value.Null; Value.Str "a" ]))
  in
  [ ("L", nl_relation rng "L" 50); ("M", nl_relation rng "M" 2); ("R", r) ]

(* A materialized inner is remade at every open of its join.  Under an
   [Apply] over 50 outer rows the join re-opens per row; each re-open
   deletes the previous open's heap, so the run leaves one inner (half of
   R's 20 pages) on the simulated disk, not fifty. *)
let test_nl_inner_reopen_deletes () =
  let rels = reopen_relations () in
  Alcotest.(check int) "R is 20 pages" 20
    (Storage.Heap_file.page_count (Catalog.heap (G.catalog_of rels) "R"));
  let rk = col ~table:"R" "K" in
  let plan =
    count_per_row
      (Plan.Join
         {
           method_ = Plan.Nested_loop;
           kind = Plan.Inner;
           cond = [];
           residual = [ A.Cmp (A.Col rk, A.Le, A.Col lk) ];
           left = Plan.Scan "M";
           right = Plan.Filter ([ A.Cmp (A.Col rk, A.Ge, A.Lit (Value.Int 3)) ], Plan.Scan "R");
         })
  in
  let rows, files, pages = left_behind rels Plan.run plan in
  Alcotest.(check bool) "rows" true
    (Relation.equal_bag rows (reference_nl_apply rels plan));
  Alcotest.(check (list int)) "one inner left" [ 1; 10 ] [ files; pages ]

(* A [Sort] (and a sort-based [Distinct]) re-opened under the same [Apply]
   writes a sorted run of R's rows with K at most the outer row's K at
   every open; each re-open deletes the previous open's run, so at most
   one is left, not one per outer row. *)
let test_sort_reopen_deletes () =
  let rels = reopen_relations () in
  let rk = col ~table:"R" "K" in
  let correlated = Plan.Filter ([ A.Cmp (A.Col rk, A.Le, A.Col lk) ], Plan.Scan "R") in
  List.iter
    (fun (what, input) ->
      let plan = count_per_row input in
      let _, files, _ = left_behind rels Plan.run plan in
      Alcotest.(check bool) (what ^ ": at most one run left") true (files <= 1))
    [
      ("sort", Plan.Sort ([ rk ], correlated));
      ("distinct", Plan.Distinct (Plan.Project ([ rk ], correlated)));
    ]

let io_of catalog run plan =
  let pager = Catalog.pager catalog in
  let before = Pager.snapshot pager in
  let result = run catalog plan in
  let d = Pager.diff_since pager before in
  (result, [ d.Pager.logical_reads; d.Pager.physical_reads; d.Pager.physical_writes ])

(* One nested-loop trial: L and R, R sometimes crossing the chunk
   boundary, and a plain join or one under an [Apply]. *)
let nl_trial rng =
  let l = nl_relation rng "L" (G.int_in rng 0 30) in
  let r =
    nl_relation rng "R"
      (if G.int_in rng 0 3 = 0 then
         G.int_in rng (Batch.max_rows - 5) (Batch.max_rows + 5)
       else G.int_in rng 0 40)
  in
  let plan =
    if G.int_in rng 0 3 = 0 then nl_apply rng
    else nl_join rng ~l:"L" ~left:(Plan.Scan "L") ~extra_residual:(fun _ -> [])
  in
  ([ ("L", l); ("R", r) ], plan)

let prop_nested_loop =
  QCheck2.Test.make
    ~name:"nested-loop join: rows and page I/O against nested loops in memory \
           and row by row"
    ~count:150 seed_gen (fun seed ->
      let rels, plan = nl_trial (Random.State.make [| seed |]) in
      List.for_all
        (fun buffer_pages ->
          let catalog () = G.catalog_of ~buffer_pages rels in
          let got, io = io_of (catalog ()) Plan.run plan in
          let expected, expected_io =
            match plan with
            | Plan.Join _ ->
                (reference_nl_join rels plan, row_nl_join_io (catalog ()) plan)
            | _ -> (reference_nl_apply rels plan, io)
          in
          (Relation.equal_bag expected got && io = expected_io)
          || begin
               Fmt.epr "@.pool %d: %s@.io %a, expected %a@.got:@.%a@.expected:@.%a@."
                 buffer_pages (Plan.to_string plan)
                 Fmt.(Dump.list int) io
                 Fmt.(Dump.list int) expected_io
                 Relation.pp got Relation.pp expected;
               false
             end)
        [ 3; 8 ])

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
          Alcotest.(check int)
            (Printf.sprintf "filter cardinality at n=%d" n)
            (max 0 (n - 1))
            (Relation.cardinality (Plan.run (make_catalog ()) plan));
          Alcotest.(check bool)
            (Printf.sprintf "filter agrees at n=%d" n)
            true
            (matches_in_memory ~make_catalog plan)))
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
          Alcotest.(check bool)
            (Printf.sprintf "group agg agrees at n=%d" n)
            true
            (matches_reference ~make_catalog plan)))
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
          Alcotest.(check bool)
            (Printf.sprintf "outer hash self-join agrees at n=%d" n)
            true
            (matches_reference ~make_catalog plan)))
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
  (* mixed representations: an Ints column, a NULL-dense Ints column, a
     boxed string column and a NULL-dense Dates column survive the round
     trip exactly *)
  let schema =
    Schema.of_columns ~rel:"M"
      [ ("A", Value.Tint); ("B", Value.Tint); ("C", Value.Tstr); ("D", Value.Tdate) ]
  in
  let rows =
    List.init 100 (fun i ->
        Row.of_list
          [
            Value.Int i;
            (if i mod 3 = 0 then Value.Null else Value.Int (-i));
            (if i mod 5 = 0 then Value.Null else Value.Str (string_of_int i));
            (if i mod 4 = 0 then Value.Null
             else Value.Date { year = 1900 + (i * 7); month = 1 + (i mod 12); day = 1 + (i mod 31) });
          ])
  in
  let b = Batch.of_rows schema (Array.of_list rows) in
  Alcotest.(check bool) "dates stored as day keys" true
    (match b.Batch.cols.(3) with Batch.Dates _ -> true | _ -> false);
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

(* ---------------- the heap's column image ----------------------------- *)

(* The vectorized scan hands out a heap's column image, decoded once per
   chunk.  Its rows must be the heap's rows in order, and its page traffic
   that of a scan filling [max_rows]-row batches page by page: the same
   logical and physical reads, and the same LRU order.  Each case drives
   two twin pagers (3-page pool, identical appends): one through
   [Vec.scan], one through [reference_scan] below, with a second scan of
   the same heap interleaved batch by batch. *)
module Heap_file = Storage.Heap_file

let image_schema =
  Schema.of_columns ~rel:"H"
    [ ("K", Value.Tint); ("D", Value.Tdate); ("S", Value.Tstr) ]

let image_row i =
  [|
    (if i mod 13 = 0 then Value.Null else Value.Int (i mod 17));
    (if i mod 7 = 0 then Value.Null
     else Value.Date { year = 1975 + (i mod 4); month = 1 + (i mod 12); day = 1 + (i mod 28) });
    Value.Str (string_of_int i);
  |]

(* The pre-image vectorized scan: fill a batch row by row, reading the
   next page through the pool when the current one runs out. *)
let reference_scan pager heap =
  Heap_file.flush heap;
  let file = Heap_file.file_id heap in
  let npages = Pager.page_count pager file in
  let page = ref [||] and off = ref 0 and next = ref 0 in
  fun () ->
    let buf = ref [] and n = ref 0 in
    let rec fill () =
      if !n < Batch.max_rows then
        if !off < Array.length !page then begin
          buf := !page.(!off) :: !buf;
          incr off;
          incr n;
          fill ()
        end
        else if !next < npages then begin
          page := Pager.read_page pager file !next;
          incr next;
          off := 0;
          fill ()
        end
    in
    fill ();
    if !n = 0 then None else Some (List.rev !buf)

type twin = { pager : Pager.t; heap : Heap_file.t; mutable appended : int }

let twin ~page_bytes =
  let pager = Pager.create ~buffer_pages:3 ~page_bytes () in
  { pager; heap = Heap_file.create pager image_schema; appended = 0 }

let append tw k =
  for _ = 1 to k do
    Heap_file.append tw.heap (image_row tw.appended);
    tw.appended <- tw.appended + 1
  done

let check_io what vec ref_ =
  let io tw =
    let s = Pager.stats tw.pager in
    [ s.Pager.logical_reads; s.Pager.physical_reads; s.Pager.physical_writes ]
  in
  Alcotest.(check (list int))
    (what ^ ": logical, physical reads, writes")
    (io ref_) (io vec)

let vec_batches tw =
  let v = Vec.scan ~eager:true tw.heap in
  fun () -> Option.map Batch.to_rows (v.Vec.next_batch ())

(* Two scans of each twin's heap, the second started after the first's
   first batch, pulled alternately; rows and page counters are compared
   after every batch.  Returns the first scan's rows. *)
let interleaved_scans what vec ref_ =
  let step name v r =
    let a = v () in
    Alcotest.(check bool)
      (what ^ ": " ^ name ^ " batch rows")
      true
      (Option.equal (List.equal Row.equal) a (r ()));
    check_io (what ^ ": " ^ name) vec ref_;
    a
  in
  let rows = ref [] in
  let v1 = vec_batches vec and r1 = reference_scan ref_.pager ref_.heap in
  let take1 () =
    match step "first scan" v1 r1 with
    | Some b ->
        rows := List.rev_append b !rows;
        true
    | None -> false
  in
  let more1 = ref (take1 ()) and more2 = ref true in
  let v2 = vec_batches vec and r2 = reference_scan ref_.pager ref_.heap in
  while !more1 || !more2 do
    if !more2 then more2 := step "second scan" v2 r2 <> None;
    if !more1 then more1 := take1 ()
  done;
  List.rev !rows

(* Same hit/miss sequence when every page is read once more, last page
   first: the pools held the same pages in the same LRU order. *)
let check_lru what vec ref_ =
  let file tw = Heap_file.file_id tw.heap in
  for p = Pager.page_count vec.pager (file vec) - 1 downto 0 do
    ignore (Pager.read_page vec.pager (file vec) p);
    ignore (Pager.read_page ref_.pager (file ref_) p);
    check_io (Printf.sprintf "%s: LRU probe of page %d" what p) vec ref_
  done

(* Sizes 0, 1 and k*max_rows ± 1, in pages of 2 and of 7 rows (a partial
   page, and pages straddling every chunk boundary): a cold scan decodes
   the image, a warm one reuses it; then appends after a scan, which left
   a partial page mid-file when the size was odd, and the rescans see the
   new rows. *)
let test_image_scan () =
  List.iter
    (fun (page_bytes, n) ->
      let vec = twin ~page_bytes and ref_ = twin ~page_bytes in
      let pass name =
        let what = Printf.sprintf "%dB pages, n=%d, %s" page_bytes n name in
        let rows = interleaved_scans what vec ref_ in
        check_lru what vec ref_;
        Alcotest.(check bool) (what ^ ": the heap's rows in order") true
          (List.equal Row.equal rows (List.init vec.appended image_row))
      in
      let append_both k = append vec k; append ref_ k in
      append_both n;
      check_io "load" vec ref_;
      pass "cold";
      pass "warm";
      append_both ((n / 2) + 3);
      pass "after an append";
      append_both 1;
      pass "after a one-row append";
      Alcotest.(check bool) "equals Heap_file.scan" true
        (List.equal Row.equal
           (Relation.rows (Heap_file.to_relation vec.heap))
           (List.init vec.appended image_row)))
    (List.concat_map
       (fun page_bytes -> List.map (fun n -> (page_bytes, n)) boundary_sizes)
       [ 64; 224 ])

(* A scan sees the rows flushed when it began, though a later scan, begun
   after an append, stores a longer trailing chunk in between. *)
let test_image_scan_before_append () =
  let tw = twin ~page_bytes:64 in
  append tw 300;
  let early = Vec.scan tw.heap in
  append tw 100;
  let expect n = List.init n image_row in
  Alcotest.(check bool) "the later scan sees 400 rows" true
    (List.equal Row.equal (Vec.to_rows (Vec.scan tw.heap)) (expect 400));
  Alcotest.(check bool) "the earlier scan sees its 300" true
    (List.equal Row.equal (Vec.to_rows early) (expect 300));
  Alcotest.(check bool) "a new scan sees 400 rows" true
    (List.equal Row.equal (Vec.to_rows (Vec.scan tw.heap)) (expect 400))

(* The page order a row-at-a-time consumer sees.  A heap is scanned
   through [Vec.scan] — bare, filtered, and filtered and projected — and
   consumed row by row through [Vec.to_tuple]; after each row a page of a
   second file is read, cycling through all but two of the pool's pages.
   In 3- to 8-page pools the logical reads, physical reads and writes
   must equal those of [Heap_file.scan] consumed the same way, with the
   same filter applied row by row: the batch scan requests each page just
   before the first row that needs it, not the chunk's pages together. *)
let test_page_order () =
  let n = (2 * Batch.max_rows) + 17 in
  let k_ge_3 =
    Vec.compile_conjunction [ (Vec.Column 0, A.Ge, Vec.Value (fun () -> Value.Int 3)) ]
  in
  let passes (row : Row.t) =
    Exec.Eval.cmp_values A.Ge (Row.get row 0) (Value.Int 3) = Relalg.Truth.True
  in
  let kd = Schema.project image_schema [ 0; 2 ] in
  let shapes =
    [
      ("scan", Fun.id, fun _ -> true);
      ("filter", Vec.filter ~pred:k_ge_3, passes);
      ( "filter and projection",
        (fun v -> Vec.project ~schema:kd ~positions:[| 0; 2 |] (Vec.filter ~pred:k_ge_3 v)),
        passes );
    ]
  in
  List.iter
    (fun buffer_pages ->
      List.iter
        (fun (what, through, keep) ->
          let run rows_of =
            let pager = Pager.create ~buffer_pages ~page_bytes:64 () in
            let heap = Heap_file.create pager image_schema in
            List.iter (fun i -> Heap_file.append heap (image_row i)) (List.init n Fun.id);
            Heap_file.flush heap;
            (* the second file fits beside one heap page: a request
               order that brings a chunk's pages in together evicts it *)
            let other = Heap_file.create pager image_schema in
            while Heap_file.page_count other < buffer_pages - 2 do
              Heap_file.append other (image_row 0)
            done;
            Heap_file.flush other;
            let other_pages = Heap_file.page_count other in
            let before = Pager.snapshot pager in
            let next = rows_of heap in
            let rec go k =
              match next () with
              | None -> k
              | Some _ ->
                  ignore (Pager.read_page pager (Heap_file.file_id other) (k mod other_pages));
                  go (k + 1)
            in
            let rows = go 0 in
            let d = Pager.diff_since pager before in
            (rows, [ d.Pager.logical_reads; d.Pager.physical_reads; d.Pager.physical_writes ])
          in
          let batch_rows, batch_io =
            run (fun heap -> (Vec.to_tuple (through (Vec.scan heap))).Iterator.next)
          in
          let row_rows, row_io =
            run (fun heap ->
                let next = Heap_file.scan heap in
                let rec kept () =
                  match next () with
                  | Some row when not (keep row) -> kept ()
                  | r -> r
                in
                kept)
          in
          let label = Printf.sprintf "%s, %d-page pool" what buffer_pages in
          Alcotest.(check int) (label ^ ": rows") row_rows batch_rows;
          Alcotest.(check (list int))
            (label ^ ": logical reads, physical reads, writes")
            row_io batch_io)
        shapes)
    [ 3; 4; 5; 6; 7; 8 ]

(* A deleted temp's image goes with it: its scan fails as the file's does,
   and a new heap on the same pager scans its own rows. *)
let test_image_deleted_temp () =
  let tw = twin ~page_bytes:64 in
  append tw 300;
  ignore (vec_batches tw ());
  Heap_file.delete tw.heap;
  (match vec_batches tw () with
  | _ -> Alcotest.fail "scan of a deleted heap"
  | exception Invalid_argument _ -> ());
  let heap = Heap_file.create tw.pager image_schema in
  List.iter (fun i -> Heap_file.append heap (image_row (i + 1000))) (List.init 250 Fun.id);
  Alcotest.(check bool) "a new temp scans its own rows" true
    (List.equal Row.equal
       (Vec.to_rows (Vec.scan heap))
       (List.init 250 (fun i -> image_row (i + 1000))))

(* A self hash join scans one heap twice, the build side to the end before
   the probe side starts; the statement runs twice on one catalog, the
   second time from the image.  Each run's rows equal the nested-loop
   join's, and its page counters those of two row-by-row scans of the heap
   one after the other, run the same way. *)
let test_image_self_join_twice () =
  let rel = Relation.make image_schema (List.init 700 image_row) in
  let hk = col ~table:"H" "K" in
  let plan =
    Plan.Join
      {
        method_ = Plan.Hash;
        kind = Plan.Inner;
        cond = [ (hk, A.Eq, col ~table:"H2" "K") ];
        residual = [];
        left = Plan.Scan "H";
        right = Plan.Rename ("H2", Plan.Scan "H");
      }
  in
  let runs run =
    let catalog = G.catalog_of ~buffer_pages:3 [ ("H", rel) ] in
    List.map (fun _ -> io_of catalog run plan) [ 1; 2 ]
  in
  let two_scans catalog _ =
    let heap = Catalog.heap catalog "H" in
    List.iter
      (fun () ->
        let next = Heap_file.scan heap in
        while Option.is_some (next ()) do () done)
      [ (); () ];
    Relation.make image_schema []
  in
  let nested_loops =
    match plan with
    | Plan.Join j -> Plan.Join { j with method_ = Plan.Nested_loop }
    | p -> p
  in
  List.iteri
    (fun i (((rows, io), (_, scans_io)), (expected, _)) ->
      Alcotest.(check bool) (Printf.sprintf "run %d: rows" (i + 1)) true
        (Relation.equal_bag expected rows);
      Alcotest.(check (list int)) (Printf.sprintf "run %d: page I/O" (i + 1))
        scans_io io)
    (List.combine
       (List.combine (runs Plan.run) (runs two_scans))
       (runs (fun c _ -> Plan.run c nested_loops)))

(* ---------------- stored rows ------------------------------------------ *)

(* A scan-derived batch hands out its heap's own rows: [Batch.row] is
   physically the row the tuple scan returns, through a filter's selection
   and a rename.  Every operator that builds columns — a projection, a
   hash join's and a nested-loop join's gathers, an aggregate — emits
   batches whose stored rows, where it keeps any, are its columns' values:
   none carries the rows of its input. *)
let test_stored_rows () =
  let rel = Relation.make image_schema (List.init 700 image_row) in
  let catalog = G.catalog_of [ ("H", rel) ] in
  let heap = Catalog.heap catalog "H" in
  let stored = Array.of_list (Iterator.to_rows (Iterator.scan heap)) in
  let scan () = Vec.scan heap in
  let k_ge_3 =
    Vec.compile_conjunction [ (Vec.Column 0, A.Ge, Vec.Value (fun () -> Value.Int 3)) ]
  in
  let live_rows v =
    let rec go acc =
      match v.Vec.next_batch () with
      | None -> List.rev acc
      | Some b ->
          let acc = ref acc in
          Batch.iter_live b (fun i -> acc := Batch.row b i :: !acc);
          go !acc
    in
    go []
  in
  let same what expected got =
    Alcotest.(check int) (what ^ ": row count") (List.length expected) (List.length got);
    Alcotest.(check bool) (what ^ ": the stored rows themselves") true
      (List.for_all2 ( == ) expected got)
  in
  same "scan" (Array.to_list stored) (live_rows (scan ()));
  let passes (row : Row.t) =
    Exec.Eval.cmp_values A.Ge (Row.get row 0) (Value.Int 3) = Relalg.Truth.True
  in
  same "filter over a renamed scan"
    (List.filter passes (Array.to_list stored))
    (live_rows
       (Vec.filter ~pred:k_ge_3
          (Vec.with_schema (scan ()) (Schema.rename_rel image_schema "H2"))));
  (* every batch's stored rows, if any, are its columns' values *)
  let check_batches what (v : Vec.t) expected =
    let rec go acc =
      match v.Vec.next_batch () with
      | None -> List.concat (List.rev acc)
      | Some b ->
          let arity = Array.length b.Batch.cols in
          Option.iter
            (fun rows ->
              Array.iteri
                (fun i row ->
                  Alcotest.(check bool) (what ^ ": stored row matches its columns") true
                    (Row.equal row
                       (Array.init arity (fun c -> Batch.value b ~col:c ~row:i))))
                rows)
            b.Batch.rows;
          go (Batch.to_rows b :: acc)
    in
    Alcotest.(check bool) (what ^ ": rows") true
      (Relation.equal_bag
         (Relation.make v.Vec.schema (go []))
         (Relation.make v.Vec.schema expected))
  in
  let kd = Schema.project image_schema [ 0; 1 ] in
  check_batches "project"
    (Vec.project ~schema:kd ~positions:[| 0; 1 |] (scan ()))
    (List.map (fun r -> Row.project_positions r [| 0; 1 |]) (Array.to_list stored));
  let pairs on =
    List.concat_map
      (fun l -> List.filter_map (fun r -> if on l r then Some (Row.append l r) else None)
          (Array.to_list stored))
      (Array.to_list stored)
  in
  let key_eq l r =
    (not (Value.is_null (Row.get l 0))) && Value.compare (Row.get l 0) (Row.get r 0) = 0
  in
  check_batches "hash join"
    (Vec.hash_join ~left_key:[ 0 ] ~right_key:[ 0 ] (scan ()) (scan ()))
    (pairs key_eq);
  let frame = ref [||] in
  check_batches "nested-loop join"
    (Vec.nested_loop_join
       ~schema:(Schema.append image_schema (Schema.rename_rel image_schema "H2"))
       ~frame
       ~pred:
         (Vec.compile_conjunction
            [ (Vec.Value (fun () -> Row.get !frame 0), A.Eq, Vec.Column 0) ])
       (scan ()) heap)
    (pairs key_eq);
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      let k = Row.get r 0 in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    stored;
  let agg_schema =
    Schema.make
      [ Schema.column image_schema 0; { Schema.rel = "agg"; name = "N"; ty = Value.Tint } ]
  in
  check_batches "aggregate"
    (Vec.hash_group_agg ~group_key:[ 0 ]
       ~aggs:[ { Iterator.fn = A.Count_star; arg = None } ]
       ~schema:agg_schema (scan ()))
    (Hashtbl.fold (fun k n acc -> [| k; Value.Int n |] :: acc) counts [])

(* A nested-loop join pulls its left input until it ends, and not after:
   when the last left batch's matches are still queued as it ends, the
   queue drains without another pull.  Three left rows times five inner
   rows make fifteen matches, short of one output batch, so all of them
   are queued when the left side ends. *)
let test_nl_left_pulls () =
  let row k i = [| Value.Int k; Value.Null; Value.Str (string_of_int i) |] in
  let catalog =
    G.catalog_of
      [
        ("L", Relation.make image_schema (List.init 3 (row 1)));
        ("R", Relation.make image_schema (List.init 5 (row 1)));
      ]
  in
  let left = Vec.scan (Catalog.heap catalog "L") in
  let pulls = ref 0 and after_end = ref 0 and ended = ref false in
  let left =
    {
      left with
      Vec.next_batch =
        (fun () ->
          incr pulls;
          if !ended then incr after_end;
          let b = left.Vec.next_batch () in
          if Option.is_none b then ended := true;
          b);
    }
  in
  let frame = ref [||] in
  let join =
    Vec.nested_loop_join
      ~schema:(Schema.append image_schema (Schema.rename_rel image_schema "R"))
      ~frame
      ~pred:
        (Vec.compile_conjunction
           [ (Vec.Value (fun () -> Row.get !frame 0), A.Eq, Vec.Column 0) ])
      left (Catalog.heap catalog "R")
  in
  let rec drain n =
    match join.Vec.next_batch () with
    | None -> n
    | Some b -> drain (n + Batch.live b)
  in
  Alcotest.(check int) "matches" 15 (drain 0);
  Alcotest.(check int) "pulls after the left input ended" 0 !after_end;
  Alcotest.(check int) "left pulls: one batch and its end" 2 !pulls

(* ---------------- EXPLAIN ANALYZE surface ------------------------------ *)

let define_fixture db =
  Fixtures.define_fixture db "PARTS" F.kiessling_parts;
  Fixtures.define_fixture db "SUPPLY" F.kiessling_supply

let count_bug_query = Fixtures.count_bug_query

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* Every plan runs batch-at-a-time, so the default EXPLAIN ANALYZE
   reports batches beside rows/call. *)
let test_analyze_metrics () =
  let db = Core.create_db () in
  define_fixture db;
  let text =
    match Core.explain_query ~analyze:true db count_bug_query with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "reports batches" true (contains ~needle:"batches=" text);
  Alcotest.(check bool) "reports rows/call" true
    (contains ~needle:"rows/call=" text)

(* EXPLAIN ANALYZE pinned as a golden: the
   nestbench [fit] workload's N-in and JA-count shapes with SHIPDATE filters,
   and its JA-max-lt shape (the paper's Q5: MAX under a '<' correlation, the
   outer block cut to PNUM <= 3, so TEMP2 is a nested-loop join), over a
   small PARTS/SUPPLY in hybrid mode, under Auto, in a pool that
   holds everything and in an 8-page pool where LRU eviction decides the
   physical reads.  Q5's join rescans the stored SUPPLY with its QUAN
   restriction as a residual in the first pool, and writes and rescans the
   filtered SUPPLY in the second, which cannot hold it.  SUPPLY's 700 rows
   span several batches and pages, so the golden pins each operator's rows,
   next calls, batches and page I/O; wall-clock is masked. *)
let fit_db ~buffer_pages =
  let db = Core.create_db ~buffer_pages ~page_bytes:256 () in
  Core.define_table db "PARTS"
    [ ("PNUM", Value.Tint); ("QOH", Value.Tint) ]
    (List.init 30 (fun i -> [ Value.Int (i + 1); Value.Int (i mod 5) ]));
  Core.define_table db "SUPPLY"
    [ ("PNUM", Value.Tint); ("QUAN", Value.Tint); ("SHIPDATE", Value.Tdate) ]
    (List.init 700 (fun i ->
         let d = i * 37 mod 336 in
         [
           Value.Int ((i * 7 mod 40) + 1);
           Value.Int (i mod 10);
           (if i mod 23 = 0 then Value.Null
            else
              Value.Date
                { year = 1975 + (d / 112); month = 1 + (d / 28 mod 4); day = 1 + (d mod 28) });
         ]));
  db

let fit_queries =
  [
    "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY WHERE \
     SHIPDATE < '2-1-75')";
    "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM SUPPLY \
     WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '3-1-75')";
    "SELECT PNUM FROM PARTS WHERE PNUM <= 3 AND QOH = (SELECT MAX(QUAN) FROM \
     SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM AND QUAN <= 2)";
  ]

(* Q5 in the pool that holds SUPPLY writes no page: each of its temps is
   read once, so each is pipelined into its reader instead of written, and
   its nested-loop join rescans the stored table. *)
let test_q5_writes_only_temps () =
  let db = fit_db ~buffer_pages:256 in
  let catalog = Core.catalog db in
  let q =
    match Core.parse db (List.nth fit_queries 2) with
    | Ok q -> q
    | Error e -> Alcotest.fail e
  in
  let program =
    Optimizer.Nest_g.transform
      ~fresh:(fun () -> Catalog.fresh_temp_name catalog)
      q
  in
  let pager = Catalog.pager catalog in
  let before = Pager.snapshot pager in
  ignore (Planner.run_program ~mode:Planner.Hybrid catalog program);
  let io = Pager.diff_since pager before in
  Alcotest.(check (list string)) "no temp stored" []
    (List.filter_map
       (fun (t : Optimizer.Program.temp) ->
         if Catalog.mem catalog t.name then Some t.name else None)
       program.temps);
  Alcotest.(check int) "two temps, both pipelined" 2
    (List.length
       (List.filter
          (fun (t : Optimizer.Program.temp) ->
            Planner.pipelined Planner.Hybrid program t.name)
          program.temps));
  Alcotest.(check int) "no page written" 0 io.Pager.physical_writes

let fit_program db sql =
  match Core.parse db sql with
  | Ok q ->
      Optimizer.Nest_g.transform
        ~fresh:(fun () -> Catalog.fresh_temp_name (Core.catalog db))
        q
  | Error e -> Alcotest.fail e

(* Plain EXPLAIN and the plan check of Q2 under Hybrid run nothing: each
   of its three temps is read once, so each temp's segment reads
   "pipelined into READER" (JSON {"pipelined_into": READER}), main's plan
   holds all three, and no page is written.  An estimate is not a table:
   a [Scan] of one does not compile. *)
let test_pipelined_explain_and_check_write_nothing () =
  let db = fit_db ~buffer_pages:256 in
  let catalog = Core.catalog db in
  let sql = List.nth fit_queries 1 in
  let program = Planner.Program (fit_program db sql) in
  let pager = Catalog.pager catalog in
  let before = Pager.snapshot pager in
  let explained = Planner.explain_segments ~mode:Planner.Hybrid catalog program in
  let checked = Planner.check_segments ~mode:Planner.Hybrid catalog program in
  let text =
    Core.explain_query ~strategy:(Core.Transformed Planner.Auto)
      ~mode:Planner.Hybrid db sql
  in
  Alcotest.(check int) "no page written" 0
    (Pager.diff_since pager before).Pager.physical_writes;
  Alcotest.(check (list (pair string string)))
    "temp segments"
    [
      ("temp TEMP#1", {|{"pipelined_into":"temp TEMP#3"}|});
      ("temp TEMP#2", {|{"pipelined_into":"temp TEMP#3"}|});
      ("temp TEMP#3", {|{"pipelined_into":"main"}|});
    ]
    (List.filter_map
       (fun (e : Planner.explained) ->
         if e.seg_label = "main" then None
         else Some (e.seg_label, Json.to_string e.seg_json))
       explained);
  let main =
    (List.find (fun (e : Planner.explained) -> e.seg_label = "main") explained)
      .seg_text
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " inlined into main") true
        (Astring.String.is_infix ~affix:("Rename as " ^ name) main))
    [ "TEMP#1"; "TEMP#2"; "TEMP#3" ];
  Alcotest.(check bool) "CLI text marks the temps" true
    (match text with
    | Ok t -> Astring.String.is_infix ~affix:"  pipelined into main\n" t
    | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "main alone is checked" [ "main" ]
    (List.map (fun (label, _, _) -> label) checked);
  Alcotest.(check int) "and checks clean" 0
    (List.length (List.concat_map (fun (_, _, d) -> d) checked));
  Catalog.register_estimate catalog "ESTIMATED" (Catalog.schema catalog "PARTS")
    (Catalog.stats catalog "PARTS") ~pages:1;
  Alcotest.(check bool) "a Scan of an estimate does not compile" true
    (Result.is_error (Plan.check catalog (Plan.Scan "ESTIMATED")))

(* A pipelined temp that ends up as a nested-loop inner is written once,
   by the join, in as many pages as Paper1987 stores it in: Q2 with every
   join forced to a nested loop writes TEMP#2 (TEMP#3's inner) and TEMP#3
   (main's inner) and streams TEMP#1, the left side of TEMP#3's join. *)
let test_pipelined_nl_inner_written_once () =
  let run mode =
    let db = fit_db ~buffer_pages:256 in
    let catalog = Core.catalog db in
    let program = fit_program db (List.nth fit_queries 1) in
    let pager = Catalog.pager catalog in
    let before = Pager.snapshot pager in
    let rows =
      Planner.run_program ~force:Planner.Force_nl ~mode catalog program
    in
    let writes = (Pager.diff_since pager before).Pager.physical_writes in
    let pages name = if Catalog.mem catalog name then Catalog.pages catalog name else 0 in
    (rows, writes, pages "TEMP#2" + pages "TEMP#3")
  in
  let paper_rows, _, stored = run Planner.Paper1987 in
  let rows, writes, kept = run Planner.Hybrid in
  Alcotest.(check int) "no temp kept" 0 kept;
  Alcotest.(check int) "the two inners' pages, once each" stored writes;
  Alcotest.(check bool) "same rows" true (Relation.equal_bag paper_rows rows)

let test_explain_analyze_vectorized_golden () =
  let mask = Str.global_replace (Str.regexp "time=[0-9.]+ms") "time=*" in
  Suite_cost_goldens.check_golden "explain_analyze_vectorized"
    (String.concat ""
       (List.concat_map
          (fun sql ->
            List.map
              (fun buffer_pages ->
                Printf.sprintf "== pool=%d\n%s\n%s\n" buffer_pages sql
                  (mask
                     (match
                        Core.explain_query ~mode:Planner.Hybrid ~analyze:true
                          (fit_db ~buffer_pages) sql
                      with
                     | Ok text -> text
                     | Error msg -> "error: " ^ msg ^ "\n")))
              [ 256; 8 ])
          fit_queries))

(* The engine argument is kept for callers that still name one, and
   changes nothing. *)
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
      prop_date_filter;
      prop_date_hash_join;
      prop_date_distinct_group;
      prop_programs;
      prop_nested_loop;
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
          Alcotest.test_case "a date never meets the Int of its day key" `Quick
            test_date_never_meets_int;
          Alcotest.test_case "sort: a re-open deletes the last run" `Quick
            test_sort_reopen_deletes;
          Alcotest.test_case "nested-loop inner: a re-open deletes the last"
            `Quick test_nl_inner_reopen_deletes;
        ] );
    ( "vectorized.batches",
      [
        Alcotest.test_case "tuple adapter round trip" `Quick
          test_adapter_round_trip;
        Alcotest.test_case "of_rows/to_rows round trip" `Quick
          test_batch_of_rows_round_trip;
        Alcotest.test_case "scan fills page-sized batches" `Quick
          test_scan_batches_match_pages;
        Alcotest.test_case "column image: rows, page I/O and LRU of a scan"
          `Quick test_image_scan;
        Alcotest.test_case "column image: a scan begun before an append"
          `Quick test_image_scan_before_append;
        Alcotest.test_case "column image: a deleted temp" `Quick
          test_image_deleted_temp;
        Alcotest.test_case "page order: row-at-a-time consumers" `Quick
          test_page_order;
        Alcotest.test_case "column image: self hash join, run twice" `Quick
          test_image_self_join_twice;
        Alcotest.test_case "stored rows: shared by scans, dropped by gathers"
          `Quick test_stored_rows;
        Alcotest.test_case "nested-loop join: no pull past the left's end"
          `Quick test_nl_left_pulls;
      ] );
    ( "vectorized.surface",
      [
        Alcotest.test_case "EXPLAIN ANALYZE reports batches" `Quick
          test_analyze_metrics;
        Alcotest.test_case "EXPLAIN ANALYZE of fit shapes, vectorized" `Quick
          test_explain_analyze_vectorized_golden;
        Alcotest.test_case "Q5 writes only its temps" `Quick
          test_q5_writes_only_temps;
        Alcotest.test_case "pipelined temps: EXPLAIN and check write nothing"
          `Quick test_pipelined_explain_and_check_write_nothing;
        Alcotest.test_case "pipelined temp as nested-loop inner: written once"
          `Quick test_pipelined_nl_inner_written_once;
        Alcotest.test_case "Core.run engines agree" `Quick
          test_core_run_engines_agree;
      ] );
  ]

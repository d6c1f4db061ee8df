(* Bounded counterexample search for rewrite equivalence.

   The idea (after the small-example school of query debugging): a wrong
   rewrite almost always reveals itself on a tiny database, so enumerate
   *all* of them up to a bound and compare the original nested query with
   the transformed program under the reference semantics on each.  The
   per-column value domain is the three-point abstraction
   {const₁, const₂, NULL}: two distinguishable constants are enough to
   exercise match/no-match, duplicate and empty-group behavior, and NULL is
   the value every §5/§8 bug class hinges on.  Constants are not arbitrary —
   literals the query compares a column against seed its domain (plus a
   value on the satisfying side of every range literal, and 0 for columns
   compared against COUNT subqueries), so predicates like
   [SHIPDATE < '1-1-80'] and [QOH = (SELECT COUNT ...)] are exercised on
   both sides.

   The original side is evaluated by [Exec.Nested_iter] verbatim.  The
   program side needs one extra piece of semantics the reference evaluator
   refuses: the generated left-outer-join predicate [Cmp_outer] of
   NEST-JA2's temp definitions.  [eval_canonical] below implements it
   directly from the definition — restrict the padded side, join, NULL-pad
   preserved-side rows with no partner — and delegates everything else
   (SELECT/GROUP BY/aggregate/DISTINCT evaluation, three-valued logic) to
   the same [Nested_iter]/[Eval] code paths, so the two sides can only
   disagree about the rewrite, never about scalar rules.

   Enumeration visits databases in order of increasing total row count, so
   the first counterexample found is minimal in total rows. *)

module Ast = Sql.Ast
module Value = Relalg.Value
module Schema = Relalg.Schema
module Relation = Relalg.Relation
module Row = Relalg.Row
module Truth = Relalg.Truth
module Env = Exec.Env
module Eval = Exec.Eval
module Nested_iter = Exec.Nested_iter

type witness = {
  w_tables : (string * Relation.t) list;
  w_expected : Relation.t;
  w_got : Relation.t;
}

type verdict =
  | Equivalent of { bound : int; databases : int }
  | Not_equivalent of witness
  | Inconclusive of string

exception Give_up of string
exception Found of witness

let give_up fmt = Fmt.kstr (fun s -> raise (Give_up s)) fmt

(* ---------------- shape collection ------------------------------------ *)

(* Base relations referenced anywhere, in first-seen order. *)
let base_relations ~temps ~queries : string list =
  let temp_names = List.map fst temps in
  let rels = ref [] in
  let rec from_query (q : Ast.query) =
    List.iter
      (fun (f : Ast.from_item) ->
        if (not (List.mem f.rel temp_names)) && not (List.mem f.rel !rels)
        then rels := !rels @ [ f.rel ])
      q.from;
    List.iter from_query (Ast.subqueries q)
  in
  List.iter from_query queries;
  !rels

(* Per-column facts gathered from the queries: is the column referenced at
   all, which literal constants is it compared against (range comparisons
   additionally seed a value on the satisfying side), and is it compared
   against a COUNT subquery (seed 0 so empty groups can match). *)
type col_facts = {
  mutable referenced : bool;
  mutable seeds : Value.t list;  (* in priority order, deduplicated *)
  mutable count_compared : bool;
  mutable guard_non_null : bool;
      (* the column is the left side or subquery item of a quantified /
         NOT IN predicate: the §8 COUNT-form guards only accept such a
         rewrite when the catalog proves the stored column non-null, so
         the search must not enumerate NULLs the precondition excludes *)
}

let below = function
  | Value.Int i -> Some (Value.Int (i - 1))
  | Value.Float f -> Some (Value.Float (f -. 1.))
  | Value.Date d -> Some (Value.Date { d with Value.year = d.Value.year - 1 })
  | Value.Str "0" -> None
  | Value.Str _ -> Some (Value.Str "0")
  | Value.Null -> None

let above = function
  | Value.Int i -> Some (Value.Int (i + 1))
  | Value.Float f -> Some (Value.Float (f +. 1.))
  | Value.Date d -> Some (Value.Date { d with Value.year = d.Value.year + 1 })
  | Value.Str s -> Some (Value.Str (s ^ "z"))
  | Value.Null -> None

let collect_facts ~queries : (string * string, col_facts) Hashtbl.t =
  let facts = Hashtbl.create 16 in
  let get rel col =
    let k = (rel, col) in
    match Hashtbl.find_opt facts k with
    | Some f -> f
    | None ->
        let f =
          {
            referenced = false;
            seeds = [];
            count_compared = false;
            guard_non_null = false;
          }
        in
        Hashtbl.add facts k f;
        f
  in
  let add_seed f v = if not (List.mem v f.seeds) then f.seeds <- f.seeds @ [ v ] in
  (* [scope] maps alias -> relation name (temps included; their keys are
     simply never consulted for domains). *)
  let resolve scope (c : Ast.col_ref) =
    match c.table with
    | None -> None
    | Some a -> Option.map (fun rel -> (rel, c.column)) (List.assoc_opt a scope)
  in
  let mark scope c =
    match resolve scope c with
    | Some (rel, col) -> (get rel col).referenced <- true
    | None -> ()
  in
  let seed_cmp scope (c : Ast.col_ref) op v =
    match resolve scope c with
    | None -> ()
    | Some (rel, col) ->
        let f = get rel col in
        add_seed f v;
        (match op with
        | Ast.Lt | Ast.Le -> Option.iter (add_seed f) (below v)
        | Ast.Gt | Ast.Ge -> Option.iter (add_seed f) (above v)
        | Ast.Eq | Ast.Ne | Ast.Eq_null -> ())
  in
  let counts (sub : Ast.query) =
    List.exists
      (function
        | Ast.Sel_agg (Ast.Count_star | Ast.Count _) -> true
        | _ -> false)
      sub.select
  in
  let local_scope scope (q : Ast.query) =
    List.map (fun (f : Ast.from_item) -> (Ast.from_alias f, f.rel)) q.from
    @ scope
  in
  (* The columns a COUNT-form guard consults: the predicate's left column
     and the subquery's single select item. *)
  let mark_guard scope sub (c : Ast.col_ref) =
    let set scope' c =
      match resolve scope' c with
      | Some (rel, col) -> (get rel col).guard_non_null <- true
      | None -> ()
    in
    set scope c;
    match sub.Ast.select with
    | [ Ast.Sel_col item ] -> set (local_scope scope sub) item
    | _ -> ()
  in
  let rec walk scope (q : Ast.query) =
    let scope = local_scope scope q in
    List.iter (mark scope) (Ast.local_col_refs q);
    List.iter (fun ((c : Ast.col_ref), _) -> mark scope c) q.order_by;
    List.iter
      (fun (p : Ast.predicate) ->
        match p with
        | Ast.Cmp (a, op, b) | Ast.Cmp_outer (a, op, b) -> (
            match (a, b) with
            | Ast.Col c, Ast.Lit v -> seed_cmp scope c op v
            | Ast.Lit v, Ast.Col c -> seed_cmp scope c (Ast.flip_cmp op) v
            | _ -> ())
        | Ast.Cmp_subq (Ast.Col c, _, sub) | Ast.Quant (Ast.Col c, _, _, sub)
          ->
            if counts sub then
              Option.iter
                (fun (rel, col) -> (get rel col).count_compared <- true)
                (resolve scope c);
            (match p with
            | Ast.Quant _ -> mark_guard scope sub c
            | _ -> ());
            walk scope sub
        | Ast.Not_in_subq (Ast.Col c, sub) ->
            mark_guard scope sub c;
            walk scope sub
        | Ast.Cmp_subq (_, _, sub)
        | Ast.In_subq (_, sub)
        | Ast.Not_in_subq (_, sub)
        | Ast.Exists sub
        | Ast.Not_exists sub
        | Ast.Quant (_, _, _, sub) ->
            walk scope sub)
      q.where
  in
  List.iter (walk []) queries;
  facts

(* ---------------- domains ---------------------------------------------- *)

let defaults = function
  | Value.Tint -> [ Value.Int 0; Value.Int 1 ]
  | Value.Tfloat -> [ Value.Float 0.; Value.Float 1. ]
  | Value.Tstr -> [ Value.Str "a"; Value.Str "b" ]
  | Value.Tdate ->
      [
        Value.Date { Value.year = 1980; month = 1; day = 1 };
        Value.Date { Value.year = 1980; month = 1; day = 2 };
      ]

let ty_fits ty v =
  match Value.type_of v with
  | None -> false
  | Some t -> (
      Value.equal_ty t ty
      ||
      match (t, ty) with
      | (Value.Tint | Value.Tfloat), (Value.Tint | Value.Tfloat) -> true
      | _ -> false)

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let dedup vs =
  List.fold_left
    (fun acc v -> if List.exists (Value.equal v) acc then acc else acc @ [ v ])
    [] vs

(* The column's three-point domain {const₁, const₂, NULL}. *)
let column_domain (facts : col_facts option) (ty : Value.ty) : Value.t list =
  let zero =
    match facts with
    | Some f when f.count_compared -> (
        match ty with
        | Value.Tint -> [ Value.Int 0 ]
        | Value.Tfloat -> [ Value.Float 0. ]
        | Value.Tstr | Value.Tdate -> [])
    | _ -> []
  in
  let seeds =
    match facts with
    | Some f -> List.filter (ty_fits ty) f.seeds
    | None -> []
  in
  let consts = take 2 (dedup (zero @ seeds @ defaults ty)) in
  consts @ [ Value.Null ]

(* ---------------- canonical-program evaluation ------------------------- *)

(* Evaluate a canonical (flat) query, including generated [Cmp_outer]
   left-outer-join predicates, under the reference semantics; a join whose
   padded side is not one relation the preserved side never names is
   outside them. *)
let eval_canonical ~lookup_relation (q : Ast.query) : Relation.t =
  let outer =
    List.filter_map
      (function
        | Ast.Cmp_outer (Ast.Col l, _, Ast.Col r) -> Some (l.table, r.table)
        | Ast.Cmp_outer _ -> Some (None, None)
        | _ -> None)
      q.where
  in
  (match List.sort_uniq compare (List.map snd outer) with
  | [] -> ()
  | [ Some p ]
    when (not (List.mem (Some p) (List.map fst outer)))
         && List.exists (fun f -> Ast.from_alias f = p) q.from ->
      ()
  | _ -> give_up "unsupported outer-join shape in the program");
  Nested_iter.eval_query ~lookup_relation Env.empty q

(* Run the whole program on one database: temps in order (registered under
   their program column names, the planner's convention), then the main
   query. *)
let eval_program ~lookup ~(db : (string * Relation.t) list) ~temps ~main :
    Relation.t =
  let registered = ref [] in
  let schema_lookup name =
    match List.assoc_opt name !registered with
    | Some rel -> Some (Relation.schema rel)
    | None -> (
        match List.assoc_opt name db with
        | Some rel -> Some (Relation.schema rel)
        | None -> lookup name)
  in
  let lookup_relation name =
    match List.assoc_opt name !registered with
    | Some rel -> rel
    | None -> (
        match List.assoc_opt name db with
        | Some rel -> rel
        | None -> give_up "program references unknown relation %s" name)
  in
  List.iter
    (fun (name, def) ->
      let result = eval_canonical ~lookup_relation def in
      (* Re-tag under the temp's name and schema, as the planner's
         [register_temp_result] does (positional names). *)
      let schema =
        Sql.Analyzer.output_schema ~lookup:schema_lookup ~rel:name def
      in
      let renamed = Relation.make schema (Relation.rows result) in
      registered := (name, renamed) :: !registered)
    temps;
  eval_canonical ~lookup_relation main

(* ---------------- comparison (the oracle's rule) ----------------------- *)

(* [Row.compare] orders NULL first and equal to itself, so both equalities
   are exact on NULLs.  A plain select compares as a set: NEST-N-J's join
   multiplies outer rows by matching inner duplicates (DESIGN.md). *)
let agree ~(original : Ast.query) expected got =
  let fixed =
    original.distinct || original.group_by <> [] || Ast.select_has_agg original
  in
  (if fixed then Relation.equal_bag else Relation.equal_set) expected got

(* ---------------- enumeration ------------------------------------------ *)

(* Multisets of size [k] over [l], preserving first-seen enumeration
   order. *)
let rec multisets l k =
  if k = 0 then [ [] ]
  else
    match l with
    | [] -> []
    | x :: rest ->
        List.map (fun m -> x :: m) (multisets l (k - 1)) @ multisets rest k

let check ?(bound = 2) ?(max_databases = 50_000) ?(max_rows = 100)
    ?(nullable = fun ~rel:_ (_ : string) -> true) ~lookup ~temps
    ~(main : Ast.query) (original : Ast.query) : verdict =
  let queries = original :: main :: List.map snd temps in
  try
    let rels = base_relations ~temps ~queries in
    if rels = [] then give_up "no base relations to enumerate";
    let facts = collect_facts ~queries in
    (* Candidate rows per relation: the product of referenced-column
       domains; unreferenced columns are pinned to one constant. *)
    let rel_rows =
      List.map
        (fun rel ->
          let schema =
            match lookup rel with
            | Some s -> Schema.rename_rel s rel
            | None -> give_up "unknown base relation %s" rel
          in
          let domains =
            List.map
              (fun (c : Schema.column) ->
                match Hashtbl.find_opt facts (rel, c.name) with
                | Some f when f.referenced ->
                    (* A column a COUNT-form guard consulted is enumerated
                       without NULL when the catalog proves it non-null:
                       the guard accepted the rewrite under exactly that
                       precondition, so the search must quantify over the
                       same database class.  Every other column keeps its
                       full {const₁, const₂, NULL} domain. *)
                    let dom = column_domain (Some f) c.ty in
                    if f.guard_non_null && not (nullable ~rel c.name) then
                      List.filter (fun v -> not (Value.is_null v)) dom
                    else dom
                | _ -> [ List.hd (defaults c.ty) ])
              (Schema.columns schema)
          in
          let rows =
            List.fold_right
              (fun domain acc ->
                List.concat_map
                  (fun v -> List.map (fun row -> v :: row) acc)
                  domain)
              domains [ [] ]
          in
          if List.length rows > max_rows then
            give_up "row domain for %s has %d candidates (max %d)" rel
              (List.length rows) max_rows;
          (rel, schema, List.map Row.of_list rows))
        rels
    in
    (* Per relation, the databases-fragment choices of each size: a
       relation instance is a multiset of candidate rows. *)
    let fragments =
      List.map
        (fun (rel, schema, rows) ->
          ( rel,
            Array.init (bound + 1) (fun k ->
                List.map
                  (fun ms -> Relation.make schema ms)
                  (multisets rows k)) ))
        rel_rows
    in
    let visited = ref 0 in
    let evaluate (db : (string * Relation.t) list) =
      incr visited;
      if !visited > max_databases then
        give_up "search budget exhausted (%d databases at bound %d)"
          max_databases bound;
      let lookup_relation name =
        match List.assoc_opt name db with
        | Some rel -> rel
        | None -> give_up "query references unknown relation %s" name
      in
      match
        ( Nested_iter.eval_query ~lookup_relation Env.empty original,
          eval_program ~lookup ~db ~temps ~main )
      with
      | expected, got ->
          if not (agree ~original expected got) then
            raise
              (Found
                 { w_tables = db; w_expected = expected; w_got = got })
      | exception Nested_iter.Runtime_error _ ->
          (* The original errors on this database (multi-row scalar
             subquery); equivalence is vacuous here. *)
          ()
    in
    (* All size assignments per relation summing to [total], smallest
       databases first. *)
    let nrels = List.length fragments in
    for total = 0 to bound * nrels do
      let rec assign db total = function
        | [] -> if total = 0 then evaluate (List.rev db)
        | (rel, by_size) :: rest ->
            for k = 0 to min bound total do
              List.iter
                (fun frag -> assign ((rel, frag) :: db) (total - k) rest)
                by_size.(k)
            done
      in
      assign [] total fragments
    done;
    Equivalent { bound; databases = !visited }
  with
  | Found w -> Not_equivalent w
  | Give_up msg -> Inconclusive msg

(* ---------------- rendering -------------------------------------------- *)

let witness_to_repro ?(description = "equivalence counterexample") ~original
    (w : witness) =
  match
    Workload.Repro_format.to_string ~description
      { tables = w.w_tables; sql = Sql.Pp.query_to_string original }
  with
  | text -> Ok text
  | exception Workload.Csv_writer.Unwritable msg ->
      Error ("the witness cannot be written as a repro: " ^ msg)

let total_rows (w : witness) =
  List.fold_left (fun n (_, rel) -> n + Relation.cardinality rel) 0 w.w_tables

let describe_tables (w : witness) =
  String.concat "; "
    (List.map
       (fun (name, rel) ->
         Printf.sprintf "%s={%s}" name
           (String.concat " | "
              (List.map
                 (fun row ->
                   String.concat ","
                     (List.map Value.to_string (Row.to_list row)))
                 (Relation.rows rel))))
       w.w_tables)

let certificate = function
  | Equivalent { bound; databases } ->
      Printf.sprintf "equivalence: verified up to %d rows/relation (%d databases)"
        bound databases
  | Not_equivalent w ->
      Printf.sprintf
        "equivalence: COUNTEREXAMPLE on a %d-row database (expected %d rows, got %d)"
        (total_rows w)
        (Relation.cardinality w.w_expected)
        (Relation.cardinality w.w_got)
  | Inconclusive msg -> "equivalence: inconclusive (" ^ msg ^ ")"

let diagnostics ~span (v : verdict) : Diagnostics.t list =
  match v with
  | Not_equivalent w ->
      [
        Diagnostics.make "NQ120" span
          ~hint:"replay the witness with nestsql fuzz --replay"
          "transformed program disagrees with the original on a %d-row \
           database: %s (expected %d rows, got %d)"
          (total_rows w) (describe_tables w)
          (Relation.cardinality w.w_expected)
          (Relation.cardinality w.w_got);
      ]
  | Equivalent { bound; databases } ->
      [
        Diagnostics.make "NQ121" span
          "rewrite agrees with the original on all %d databases with up to \
           %d rows per relation"
          databases bound;
      ]
  | Inconclusive msg ->
      [ Diagnostics.make "NQ122" span "equivalence search inconclusive: %s" msg ]

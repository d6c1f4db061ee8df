(* Catalog: named relations backed by heap files, plus simple statistics.

   Base tables and the temporary tables created by the transformation
   algorithms (TEMP1/TEMP2/TEMP3 in the paper) live here.  Statistics feed
   the cost model: page and tuple counts, and the selectivity fraction f(i)
   is estimated by the planner from predicate shape. *)

module Schema = Relalg.Schema
module Relation = Relalg.Relation

(* A relation is stored, or only estimated: a transformed program's temp
   whose plan is streamed into its one reader has a schema and statistics
   for the planner, and no rows. *)
type store = Heap of Heap_file.t | Estimated of { schema : Schema.t; pages : int }

type entry = {
  name : string;
  store : store;
  stats : Stats.t;
  mutable indexes : (int * Btree.t) list; (* key column -> B-tree *)
  mutable sorted_on : int list option;
      (* column positions the stored order is known to follow; temp tables
         created by merge-join/group-by pipelines are born sorted, which §7.4
         exploits to skip re-sorting. *)
}

type t = {
  pager : Pager.t;
  mutable entries : (string * entry) list;
  mutable temp_counter : int;
}

exception Unknown_table of string
exception Not_stored of string

let create pager =
  { pager; entries = []; temp_counter = 0 }

let pager t = t.pager

let mem t name = List.mem_assoc name t.entries

let register_relation ?sorted_on t name relation =
  if mem t name then
    invalid_arg ("Catalog.register_relation: duplicate table " ^ name);
  let schema = Schema.rename_rel (Relation.schema relation) name in
  let rows = Relation.rows relation in
  let heap = Heap_file.of_relation t.pager (Relation.make schema rows) in
  (* Statistics come from the rows in hand, not from the stored pages, so
     collecting them requests nothing. *)
  let stats = Stats.of_rows schema rows in
  t.entries <-
    (name, { name; store = Heap heap; stats; indexes = []; sorted_on })
    :: t.entries

let register_estimate ?sorted_on t name schema stats ~pages =
  if mem t name then
    invalid_arg ("Catalog.register_estimate: duplicate table " ^ name);
  let schema = Schema.rename_rel schema name in
  t.entries <-
    ( name,
      { name; store = Estimated { schema; pages }; stats; indexes = []; sorted_on }
    )
    :: t.entries

let entry t name =
  match List.assoc_opt name t.entries with
  | Some e -> e
  | None -> raise (Unknown_table name)

let entry_heap e =
  match e.store with Heap h -> h | Estimated _ -> raise (Not_stored e.name)

let entry_schema e =
  match e.store with Heap h -> Heap_file.schema h | Estimated e -> e.schema

let heap t name = entry_heap (entry t name)
let schema t name = entry_schema (entry t name)
let relation t name = Heap_file.to_relation (heap t name)
let sorted_on t name = (entry t name).sorted_on

let stats t name = (entry t name).stats

let column_stats t name column =
  match List.assoc_opt name t.entries with
  | None -> None
  | Some e -> (
      match Schema.find_opt (entry_schema e) column with
      | Some i -> Some (i, Stats.column e.stats i)
      | None | (exception Schema.Ambiguous _) -> None)

let column_nullable t ~rel col =
  match column_stats t rel col with
  | Some (_, cs) -> cs.Stats.nulls > 0
  | None -> true

let create_index t name ~column =
  let e = entry t name in
  let heap = entry_heap e in
  let key_col = Schema.find (Heap_file.schema heap) column in
  if not (List.mem_assoc key_col e.indexes) then
    e.indexes <- (key_col, Btree.build t.pager heap ~key_col) :: e.indexes

let index_on t name ~key_col = List.assoc_opt key_col (entry t name).indexes

let indexed_columns t name =
  let e = entry t name in
  let schema = entry_schema e in
  List.rev_map
    (fun (key_col, _) -> (Schema.column schema key_col).Schema.name)
    e.indexes

let pages t name =
  match (entry t name).store with
  | Heap h -> Heap_file.page_count h
  | Estimated e -> e.pages

let tuples t name = Stats.tuples (entry t name).stats

let probe_beats_scan t name index ~sel =
  let matches = Float.max 1. (float_of_int (tuples t name) *. sel) in
  Btree.range_cost index ~sel ~matches < float_of_int (pages t name)

let drop t name =
  match List.assoc_opt name t.entries with
  | None -> ()
  | Some e ->
      (match e.store with Heap h -> Heap_file.delete h | Estimated _ -> ());
      List.iter (fun (_, idx) -> Btree.delete idx) e.indexes;
      t.entries <- List.remove_assoc name t.entries

(* Operators leave scratch files behind — an external sort's output run,
   a nested-loop join's materialized inner — that nothing deletes; a
   statement sweeps them at its end.  Registered relations and their
   B-trees are kept. *)
let release_since t mark =
  let owned =
    List.concat_map
      (fun (_, e) ->
        (match e.store with
        | Heap h -> [ Heap_file.file_id h ]
        | Estimated _ -> [])
        @ List.map (fun (_, idx) -> Btree.file_id idx) e.indexes)
      t.entries
  in
  List.iter
    (fun file ->
      if not (List.mem file owned) then Pager.delete_file t.pager file)
    (Pager.files_since t.pager mark)

let table_names t = List.rev_map fst t.entries

(* Schema lookup for the analyzer. *)
let lookup t name =
  match List.assoc_opt name t.entries with
  | Some e -> Some (entry_schema e)
  | None -> None

let fresh_temp_name t =
  t.temp_counter <- t.temp_counter + 1;
  Printf.sprintf "TEMP#%d" t.temp_counter

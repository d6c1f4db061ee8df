(* Pager (LRU + counters), heap files and external sort. *)

module Value = Relalg.Value
module Row = Relalg.Row
module Schema = Relalg.Schema
module Relation = Relalg.Relation
open Storage

let int_schema = Schema.of_columns ~rel:"T" [ ("a", Value.Tint) ]

let row i = Row.of_list [ Value.Int i ]

let test_pager_counters () =
  let pager = Pager.create ~buffer_pages:2 ~page_bytes:64 () in
  let f = Pager.create_file pager in
  Pager.append_page pager f [| row 1 |];
  Pager.append_page pager f [| row 2 |];
  Pager.append_page pager f [| row 3 |];
  let s = Pager.stats pager in
  Alcotest.(check int) "three writes" 3 s.physical_writes;
  (* Pages 1 and 2 are resident (B=2); reading them is free, page 0 was
     evicted. *)
  ignore (Pager.read_page pager f 2);
  ignore (Pager.read_page pager f 0);
  Alcotest.(check int) "logical reads" 2 s.logical_reads;
  Alcotest.(check int) "one miss" 1 s.physical_reads

let test_pager_lru () =
  let pager = Pager.create ~buffer_pages:2 ~page_bytes:64 () in
  let f = Pager.create_file pager in
  for i = 0 to 2 do
    Pager.append_page pager f [| row i |]
  done;
  Pager.reset_stats pager;
  (* Resident: pages 1,2.  Access 1 (hit), then 0 (miss, evicts 2), then 2
     (miss). *)
  ignore (Pager.read_page pager f 1);
  ignore (Pager.read_page pager f 0);
  ignore (Pager.read_page pager f 2);
  ignore (Pager.read_page pager f 0);
  (* hit: 0 still resident *)
  let s = Pager.stats pager in
  Alcotest.(check int) "misses follow LRU" 2 s.physical_reads;
  Alcotest.(check int) "logical" 4 s.logical_reads

let test_pager_repeated_scan_fits () =
  (* An inner relation that fits in the pool costs its pages once no matter
     how many times it is re-scanned — the regime where nested iteration is
     competitive. *)
  let pager = Pager.create ~buffer_pages:8 ~page_bytes:64 () in
  let f = Pager.create_file pager in
  for i = 0 to 3 do
    Pager.append_page pager f [| row i |]
  done;
  Pager.reset_stats pager;
  for _ = 1 to 10 do
    for i = 0 to 3 do
      ignore (Pager.read_page pager f i)
    done
  done;
  let s = Pager.stats pager in
  Alcotest.(check int) "40 logical" 40 s.logical_reads;
  Alcotest.(check int) "0 misses" 0 s.physical_reads

let test_pager_repeated_scan_thrashes () =
  (* When the relation exceeds the pool, LRU + sequential scans miss on
     every page: N scans cost N*P reads — the paper's f(i)*Ni*Pj regime. *)
  let pager = Pager.create ~buffer_pages:2 ~page_bytes:64 () in
  let f = Pager.create_file pager in
  for i = 0 to 3 do
    Pager.append_page pager f [| row i |]
  done;
  Pager.reset_stats pager;
  for _ = 1 to 5 do
    for i = 0 to 3 do
      ignore (Pager.read_page pager f i)
    done
  done;
  let s = Pager.stats pager in
  Alcotest.(check int) "every read misses" 20 s.physical_reads

let test_pager_validation () =
  Alcotest.(check bool) "B >= 2 enforced" true
    (try
       ignore (Pager.create ~buffer_pages:1 ());
       false
     with Invalid_argument _ -> true);
  let pager = Pager.create () in
  let f = Pager.create_file pager in
  Alcotest.(check bool) "missing page" true
    (try
       ignore (Pager.read_page pager f 0);
       false
     with Invalid_argument _ -> true)

(* A page touch allocates nothing: hits that relink frames, over and over. *)
let test_pager_touch_allocates_nothing () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:64 () in
  let f = Pager.create_file pager in
  for i = 0 to 3 do
    Pager.append_page pager f [| row i |]
  done;
  let before = Gc.minor_words () in
  for k = 0 to 9_999 do
    ignore (Pager.read_page pager f ((k * 3) land 3))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "10k hits allocate %.0f words" words)
    true (words < 100.)

(* So does a miss: a sequential rescan of a file four times the pool
   misses on every page, each taking the LRU frame. *)
let test_pager_miss_allocates_nothing () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:64 () in
  let f = Pager.create_file pager in
  for i = 0 to 15 do
    Pager.append_page pager f [| row i |]
  done;
  Pager.reset_stats pager;
  let before = Gc.minor_words () in
  for k = 0 to 9_999 do
    ignore (Pager.read_page pager f (k land 15))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every read misses" 10_000
    (Pager.stats pager).physical_reads;
  Alcotest.(check bool)
    (Printf.sprintf "10k misses allocate %.0f words" words)
    true (words < 100.)

(* A deleted file's slot is reused, so the pager's memory follows the
   live files, not the number ever created: 100k files created, written,
   read and deleted leave the live heap where it was. *)
let test_pager_files_bounded () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:64 () in
  let cycle () =
    let f = Pager.create_file pager in
    Pager.append_page pager f [| row 1 |];
    ignore (Pager.read_page pager f 0);
    Pager.delete_file pager f
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  cycle ();
  let before = live_words () in
  for _ = 1 to 100_000 do
    cycle ()
  done;
  let after = live_words () in
  Alcotest.(check int) "no live files" 0 (Pager.file_count pager);
  Alcotest.(check bool)
    (Printf.sprintf "live words %d -> %d" before after)
    true
    (after - before < 1_000)

(* Property: the pager against a list-based reference LRU.  Random
   create/append/read/delete sequences over four file slots; after every
   operation the counters, live files and disk pages must match, and a read
   must return the reference's page (or fail where it fails).  The model
   keeps the ids of deleted files: a read or an append through one must
   fail, also once a later create has reused the file's slot in the
   pager.  A failed read still counts as a request. *)
type pager_op =
  | Create of int
  | Append of int
  | Read of int * int
  | Read_past of int (* the page after the file's last *)
  | Delete of int
  | Stale_read of int (* through the k-th deleted id *)
  | Stale_append of int

let pp_pager_op = function
  | Create s -> Printf.sprintf "create %d" s
  | Append s -> Printf.sprintf "append %d" s
  | Read (s, i) -> Printf.sprintf "read %d.%d" s i
  | Read_past s -> Printf.sprintf "read past %d" s
  | Delete s -> Printf.sprintf "delete %d" s
  | Stale_read k -> Printf.sprintf "stale read %d" k
  | Stale_append k -> Printf.sprintf "stale append %d" k

let pager_ops_gen =
  let open QCheck2.Gen in
  let slot = int_range 0 3 in
  pair (oneofl [ 2; 3; 8 ])
    (list_size (int_range 1 80)
       (frequency
          [
            (1, map (fun s -> Create s) slot);
            (3, map (fun s -> Append s) slot);
            (5, map2 (fun s i -> Read (s, i)) slot (int_range 0 6));
            (1, map (fun s -> Read_past s) slot);
            (1, map (fun s -> Delete s) slot);
            (1, map (fun k -> Stale_read k) nat);
            (1, map (fun k -> Stale_append k) nat);
          ]))

let pager_matches_reference (b, ops) =
  let pager = Pager.create ~buffer_pages:b ~page_bytes:64 () in
  (* reference: per slot the pager's file and a file uid; pages by (uid,
     page number); the pool as a most-recent-first list of (uid, page) *)
  let slots = Array.make 4 None and next_uid = ref 0 and stale = ref [] in
  let disk = Hashtbl.create 64 and pool = ref [] in
  let logical = ref 0 and reads = ref 0 and writes = ref 0 in
  let touch key =
    pool :=
      List.filteri (fun i _ -> i < b) (key :: List.filter (( <> ) key) !pool)
  in
  let fails f = try f (); false with Invalid_argument _ -> true in
  let stale_id k = List.nth !stale (k mod List.length !stale) in
  let slot = function
    | Create s | Append s | Read (s, _) | Read_past s | Delete s -> s
    | Stale_read _ | Stale_append _ -> 0
  in
  let step op =
    let page_ok =
      match (op, slots.(slot op)) with
      | (Stale_read _ | Stale_append _), _ when !stale = [] -> true
      | Stale_read k, _ ->
          incr logical;
          fails (fun () -> ignore (Pager.read_page pager (stale_id k) 0))
      | Stale_append k, _ ->
          fails (fun () -> Pager.append_page pager (stale_id k) [| row 0 |])
      | Read_past _, Some (f, _, n) ->
          incr logical;
          fails (fun () -> ignore (Pager.read_page pager f !n))
      | Create s, None ->
          slots.(s) <- Some (Pager.create_file pager, !next_uid, ref 0);
          incr next_uid;
          true
      | Append _, Some (f, uid, n) ->
          (* the write count numbers the page's one row *)
          Pager.append_page pager f [| row !writes |];
          Hashtbl.replace disk (uid, !n) !writes;
          touch (uid, !n);
          incr n;
          incr writes;
          true
      | Read (_, i), Some (f, uid, _) -> (
          incr logical;
          let got =
            try Some (Pager.read_page pager f i) with Invalid_argument _ -> None
          in
          match Hashtbl.find_opt disk (uid, i) with
          | None -> got = None
          | Some v ->
              if not (List.mem (uid, i) !pool) then incr reads;
              touch (uid, i);
              got = Some [| row v |])
      | Delete s, Some (f, uid, n) ->
          Pager.delete_file pager f;
          for i = 0 to !n - 1 do
            Hashtbl.remove disk (uid, i)
          done;
          pool := List.filter (fun (u, _) -> u <> uid) !pool;
          slots.(s) <- None;
          stale := f :: !stale;
          true
      | (Create _, Some _) | ((Append _ | Read _ | Read_past _ | Delete _), None)
        ->
          true
    in
    let s = Pager.stats pager in
    let ok =
      page_ok
      && s.logical_reads = !logical
      && s.physical_reads = !reads
      && s.physical_writes = !writes
      && Pager.disk_pages pager = Hashtbl.length disk
      && Pager.file_count pager
         = Array.fold_left (fun k s -> if s = None then k else k + 1) 0 slots
    in
    if not ok then
      QCheck2.Test.fail_reportf "after %s: stats %a vs reference %d/%d/%d"
        (pp_pager_op op) Pager.pp_stats s !logical !reads !writes;
    ok
  in
  List.for_all step ops

let prop_pager_matches_reference =
  QCheck2.Test.make ~name:"pager = reference LRU (stats, pages)" ~count:300
    ~print:(fun (b, ops) ->
      Printf.sprintf "B=%d: %s" b
        (String.concat "; " (List.map pp_pager_op ops)))
    pager_ops_gen pager_matches_reference

let test_heap_file_roundtrip () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:32 () in
  let rel =
    Relation.make int_schema (List.init 37 row)
  in
  let heap = Heap_file.of_relation pager rel in
  Alcotest.(check int) "tuples" 37 (Heap_file.tuple_count heap);
  Alcotest.(check bool) "multiple pages" true (Heap_file.page_count heap > 1);
  let back = Heap_file.to_relation heap in
  Alcotest.(check bool) "round trip preserves rows & order" true
    (List.equal Row.equal (Relation.rows rel) (Relation.rows back))

let test_heap_file_partial_page () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:1024 () in
  let heap = Heap_file.create pager int_schema in
  Heap_file.append heap (row 1);
  (* unflushed tail still counts as a page and scans see it *)
  Alcotest.(check int) "tail page counted" 1 (Heap_file.page_count heap);
  let back = Heap_file.to_relation heap in
  Alcotest.(check int) "scan flushes tail" 1 (Relation.cardinality back)

let test_heap_file_arity_check () =
  let pager = Pager.create () in
  let heap = Heap_file.create pager int_schema in
  Alcotest.(check bool) "arity mismatch" true
    (try
       Heap_file.append heap (Row.of_list Value.[ Int 1; Int 2 ]);
       false
     with Invalid_argument _ -> true)

let sort_values pager ?dedup xs =
  let rel = Relation.make int_schema (List.map row xs) in
  let heap = Heap_file.of_relation pager rel in
  let sorted = External_sort.sort pager ?dedup ~key:[ 0 ] heap in
  List.map
    (function
      | [ Value.Int i ] -> i
      | _ -> Alcotest.fail "bad row")
    (List.map Row.to_list (Relation.rows (Heap_file.to_relation sorted)))

let test_external_sort_small () =
  let pager = Pager.create ~buffer_pages:3 ~page_bytes:32 () in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ]
    (sort_values pager [ 4; 2; 5; 1; 3 ]);
  Alcotest.(check (list int)) "empty" [] (sort_values pager []);
  Alcotest.(check (list int)) "dedup"
    [ 1; 2; 3 ]
    (sort_values pager ~dedup:External_sort.Drop_duplicates [ 2; 1; 2; 3; 1 ])

let test_external_sort_multipass () =
  (* Force several merge passes: B=3 gives 2-way merges. *)
  let pager = Pager.create ~buffer_pages:3 ~page_bytes:16 () in
  let input = List.init 200 (fun i -> (i * 7919) mod 201) in
  let got = sort_values pager input in
  Alcotest.(check (list int)) "multipass sort" (List.sort compare input) got;
  let got_dedup =
    sort_values pager ~dedup:External_sort.Drop_duplicates input
  in
  Alcotest.(check (list int)) "multipass dedup"
    (List.sort_uniq compare input)
    got_dedup

let test_external_sort_io_shape () =
  (* Sorting P pages with B buffers should cost on the order of
     2*P*(1 + ceil(log_{B-1}(P/B))) page I/Os — linear passes over the data,
     not quadratic. *)
  let pager = Pager.create ~buffer_pages:3 ~page_bytes:16 () in
  let rel = Relation.make int_schema (List.init 256 (fun i -> row (255 - i))) in
  let heap = Heap_file.of_relation pager rel in
  let p = Heap_file.page_count heap in
  Pager.reset_stats pager;
  let sorted = External_sort.sort pager ~key:[ 0 ] heap in
  ignore sorted;
  let s = Pager.stats pager in
  let passes_upper = 2 + int_of_float (ceil (log (float p) /. log 2.)) in
  Alcotest.(check bool)
    (Printf.sprintf "io %d for %d pages is O(P log P)" (Pager.total_io s) p)
    true
    (Pager.total_io s <= 2 * p * passes_upper)

(* --- B-tree -------------------------------------------------------------- *)

let kv_schema = Schema.of_columns ~rel:"T" [ ("k", Value.Tint); ("v", Value.Tint) ]

let kv_heap pager rows =
  Heap_file.of_relation pager
    (Relation.make kv_schema
       (List.map (fun (k, v) -> Row.of_list [ Value.Int k; Value.Int v ]) rows))

(* Data rows whose key equals [v]: an equality range probe, drained. *)
let eq_rows idx v =
  let next = Btree.range idx ~lo:(v, true) ~hi:(v, true) () in
  let rec drain () = match next () with Some r -> r :: drain () | None -> [] in
  drain ()

let test_index_lookup () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:48 () in
  let heap = kv_heap pager [ (5, 50); (1, 10); (5, 51); (3, 30); (1, 11) ] in
  let idx = Btree.build pager heap ~key_col:0 in
  Alcotest.(check int) "entries" 5 (Btree.entry_count idx);
  let values key =
    List.map (fun r -> Row.get r 1) (eq_rows idx (Value.Int key))
    |> List.sort Value.compare
  in
  Alcotest.(check bool) "duplicates found" true
    (values 5 = [ Value.Int 50; Value.Int 51 ]);
  Alcotest.(check bool) "single" true (values 3 = [ Value.Int 30 ]);
  Alcotest.(check bool) "missing" true (values 99 = []);
  Alcotest.(check bool) "null probe matches nothing" true
    (eq_rows idx Value.Null = [])

let test_index_null_keys_excluded () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:48 () in
  let heap =
    Heap_file.of_relation pager
      (Relation.make kv_schema
         [ Row.of_list [ Value.Null; Value.Int 1 ];
           Row.of_list [ Value.Int 2; Value.Int 2 ] ])
  in
  let idx = Btree.build pager heap ~key_col:0 in
  Alcotest.(check int) "null keys not indexed" 1 (Btree.entry_count idx)

let test_index_build_costs_io () =
  (* Construction used to hide behind [without_accounting]; now the heap
     scan, sort runs and tree pages are all charged and recorded. *)
  let pager = Pager.create ~buffer_pages:2 ~page_bytes:32 () in
  let heap = kv_heap pager (List.init 64 (fun i -> (i, i))) in
  Pager.reset_stats pager;
  let idx = Btree.build pager heap ~key_col:0 in
  let s = Pager.stats pager in
  Alcotest.(check bool) "build charged" true (s.physical_reads > 0);
  Alcotest.(check bool) "build writes charged" true (s.physical_writes > 0);
  let b = Btree.build_io idx in
  Alcotest.(check int) "build_io records reads" s.physical_reads
    b.Pager.physical_reads;
  Pager.reset_stats pager;
  ignore (eq_rows idx (Value.Int 40));
  let s = Pager.stats pager in
  Alcotest.(check bool) "probe charged" true (s.logical_reads > 0)

let test_btree_multi_level () =
  (* Tiny pages force real interior levels; every key must still resolve
     with O(height) descents. *)
  let pager = Pager.create ~buffer_pages:8 ~page_bytes:48 () in
  let n = 500 in
  let heap =
    kv_heap pager (List.init n (fun i -> (((i * 7919) mod n), i)))
  in
  let idx = Btree.build pager heap ~key_col:0 in
  Alcotest.(check int) "entries" n (Btree.entry_count idx);
  Alcotest.(check bool) "multi-level" true (Btree.height idx >= 2);
  Alcotest.(check bool) "interior pages exist" true
    (Btree.pages idx > Btree.leaf_page_count idx);
  for k = 0 to n - 1 do
    match eq_rows idx (Value.Int k) with
    | [ _ ] -> ()
    | rows ->
        Alcotest.failf "key %d: expected 1 row, got %d" k (List.length rows)
  done

let test_btree_range () =
  let pager = Pager.create ~buffer_pages:8 ~page_bytes:48 () in
  let heap = kv_heap pager (List.init 100 (fun i -> (i, i * 10))) in
  let idx = Btree.build pager heap ~key_col:0 in
  let collect ?lo ?hi () =
    let next = Btree.range idx ?lo ?hi () in
    let rec go acc =
      match next () with
      | Some r -> go (Row.get r 0 :: acc)
      | None -> List.rev acc
    in
    go []
  in
  let ints xs = List.map (fun i -> Value.Int i) xs in
  Alcotest.(check bool) "closed range" true
    (collect ~lo:(Value.Int 10, true) ~hi:(Value.Int 14, true) ()
    = ints [ 10; 11; 12; 13; 14 ]);
  Alcotest.(check bool) "open lo" true
    (collect ~lo:(Value.Int 10, false) ~hi:(Value.Int 12, true) ()
    = ints [ 11; 12 ]);
  Alcotest.(check bool) "open hi" true
    (collect ~lo:(Value.Int 97, true) ~hi:(Value.Int 99, false) ()
    = ints [ 97; 98 ]);
  Alcotest.(check bool) "unbounded hi reaches end" true
    (collect ~lo:(Value.Int 95, true) () = ints [ 95; 96; 97; 98; 99 ]);
  Alcotest.(check bool) "unbounded lo starts at min" true
    (collect ~hi:(Value.Int 3, true) () = ints [ 0; 1; 2; 3 ]);
  Alcotest.(check int) "full scan via range" 100
    (List.length (collect ()));
  Alcotest.(check bool) "null bound matches nothing" true
    (collect ~lo:(Value.Null, true) () = [])

(* An equality probe decodes one entry per binary-search step and per leaf
   entry it walks, in place: repeated probes of a seven-level tree (ten
   matches each, drained without keeping them, every page resident)
   allocate only the cursor and one option per entry and matching row —
   about 130 words, against over 600 when each decode built a list. *)
let test_btree_probe_allocation () =
  let pager = Pager.create ~buffer_pages:2048 ~page_bytes:48 () in
  let heap = kv_heap pager (List.init 1000 (fun i -> (i mod 100, i))) in
  let idx = Btree.build pager heap ~key_col:0 in
  Alcotest.(check bool) "multi-level" true (Btree.height idx >= 3);
  let probe k =
    let key = Some (Value.Int k, true) in
    let next = Btree.range idx ?lo:key ?hi:key () in
    let rec count n = match next () with Some _ -> count (n + 1) | None -> n in
    count 0
  in
  ignore (probe 0);
  let probes = 1000 in
  let before = Gc.minor_words () in
  let matched = ref 0 in
  for k = 1 to probes do
    matched := !matched + probe (k mod 100)
  done;
  let per_probe = (Gc.minor_words () -. before) /. float_of_int probes in
  Alcotest.(check int) "ten matches a probe" (10 * probes) !matched;
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per probe" per_probe)
    true (per_probe < 160.)

let test_btree_empty () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:48 () in
  let heap = kv_heap pager [] in
  let idx = Btree.build pager heap ~key_col:0 in
  Alcotest.(check int) "no entries" 0 (Btree.entry_count idx);
  Alcotest.(check bool) "probe on empty" true
    (eq_rows idx (Value.Int 1) = []);
  let next = Btree.range idx () in
  Alcotest.(check bool) "range on empty" true (next () = None)

(* --- Stats --------------------------------------------------------------- *)

let test_stats_columns () =
  let rel =
    Relation.of_values ~rel:"T"
      [ ("K", Value.Tint); ("S", Value.Tstr) ]
      Value.
        [
          [ Int 1; Str "a" ]; [ Int 1; Str "b" ]; [ Int 3; Null ];
          [ Int 7; Str "a" ];
        ]
  in
  let stats = Stats.of_relation rel in
  Alcotest.(check int) "tuples" 4 (Stats.tuples stats);
  let k = Stats.column stats 0 in
  Alcotest.(check int) "distinct K" 3 k.Stats.distinct;
  Alcotest.(check int) "nulls K" 0 k.Stats.nulls;
  Alcotest.(check bool) "min K" true (k.Stats.min = Some (Value.Int 1));
  Alcotest.(check bool) "max K" true (k.Stats.max = Some (Value.Int 7));
  let s = Stats.column stats 1 in
  Alcotest.(check int) "distinct S" 2 s.Stats.distinct;
  Alcotest.(check int) "nulls S" 1 s.Stats.nulls

let test_stats_selectivity () =
  let c =
    { Stats.distinct = 10; nulls = 0; min = Some (Value.Int 0);
      max = Some (Value.Int 100) }
  in
  Alcotest.(check bool) "eq = 1/distinct" true
    (Stats.literal_selectivity c Sql.Ast.Eq (Value.Int 5) = 0.1);
  let lt = Stats.literal_selectivity c Sql.Ast.Lt (Value.Int 25) in
  Alcotest.(check bool) "range interpolates" true (lt > 0.2 && lt < 0.3);
  let gt = Stats.literal_selectivity c Sql.Ast.Gt (Value.Int 25) in
  Alcotest.(check bool) "complement" true (Float.abs (lt +. gt -. 1.) < 0.01);
  Alcotest.(check bool) "clamped away from 0" true
    (Stats.literal_selectivity c Sql.Ast.Lt (Value.Int (-5)) >= 0.05);
  let empty = { Stats.distinct = 0; nulls = 0; min = None; max = None } in
  Alcotest.(check bool) "no stats falls back" true
    (Stats.literal_selectivity empty Sql.Ast.Lt (Value.Int 1)
    = Stats.default_range_selectivity);
  Alcotest.(check bool) "join selectivity" true
    (Stats.join_selectivity c c = 0.1)

let test_stats_io_free () =
  (* Registration (including stats collection) must not charge the I/O
     counters beyond the heap writes themselves. *)
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:32 () in
  let catalog = Catalog.create pager in
  Pager.reset_stats pager;
  Catalog.register_relation catalog "T"
    (Relation.make int_schema (List.init 50 row));
  let s = Pager.stats pager in
  Alcotest.(check int) "no reads charged for stats" 0 s.physical_reads

let test_catalog_basics () =
  let pager = Pager.create () in
  let catalog = Catalog.create pager in
  Catalog.register_relation catalog "T"
    (Relation.make int_schema (List.init 5 row));
  Alcotest.(check bool) "mem" true (Catalog.mem catalog "T");
  Alcotest.(check int) "tuples" 5 (Catalog.tuples catalog "T");
  Alcotest.(check bool) "lookup" true (Catalog.lookup catalog "T" <> None);
  Alcotest.(check bool) "unknown lookup" true (Catalog.lookup catalog "X" = None);
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Catalog.relation catalog "X");
       false
     with Catalog.Unknown_table "X" -> true);
  Alcotest.(check bool) "dup register" true
    (try
       Catalog.register_relation catalog "T" (Relation.make int_schema []);
       false
     with Invalid_argument _ -> true);
  let t1 = Catalog.fresh_temp_name catalog in
  let t2 = Catalog.fresh_temp_name catalog in
  Alcotest.(check bool) "fresh names differ" true (t1 <> t2);
  Catalog.drop catalog "T";
  Alcotest.(check bool) "dropped" false (Catalog.mem catalog "T")

let test_catalog_sorted_on () =
  let pager = Pager.create () in
  let catalog = Catalog.create pager in
  Catalog.register_relation ~sorted_on:[ 0 ] catalog "T"
    (Relation.make int_schema (List.init 3 row));
  Alcotest.(check bool) "sorted metadata" true
    (Catalog.sorted_on catalog "T" = Some [ 0 ])

(* Property: external sort equals in-memory sort, with and without dedup. *)
let prop_sort_matches_list_sort =
  QCheck2.Test.make ~name:"external sort = List.sort" ~count:100
    QCheck2.Gen.(list_size (int_range 0 300) (int_range 0 50))
    (fun xs ->
      let pager = Storage.Pager.create ~buffer_pages:3 ~page_bytes:16 () in
      sort_values pager xs = List.sort compare xs
      && sort_values pager ~dedup:External_sort.Drop_duplicates xs
         = List.sort_uniq compare xs)

let suites =
  [
    ( "storage.pager",
      [
        Alcotest.test_case "counters" `Quick test_pager_counters;
        Alcotest.test_case "lru eviction" `Quick test_pager_lru;
        Alcotest.test_case "rescan fits in pool" `Quick
          test_pager_repeated_scan_fits;
        Alcotest.test_case "rescan thrashes" `Quick
          test_pager_repeated_scan_thrashes;
        Alcotest.test_case "validation" `Quick test_pager_validation;
        Alcotest.test_case "page touch allocates nothing" `Quick
          test_pager_touch_allocates_nothing;
        Alcotest.test_case "page miss allocates nothing" `Quick
          test_pager_miss_allocates_nothing;
        Alcotest.test_case "100k files: memory follows live files" `Quick
          test_pager_files_bounded;
        QCheck_alcotest.to_alcotest prop_pager_matches_reference;
      ] );
    ( "storage.heap_file",
      [
        Alcotest.test_case "round trip" `Quick test_heap_file_roundtrip;
        Alcotest.test_case "partial page" `Quick test_heap_file_partial_page;
        Alcotest.test_case "arity check" `Quick test_heap_file_arity_check;
      ] );
    ( "storage.external_sort",
      [
        Alcotest.test_case "small inputs" `Quick test_external_sort_small;
        Alcotest.test_case "multipass" `Quick test_external_sort_multipass;
        Alcotest.test_case "io shape" `Quick test_external_sort_io_shape;
        QCheck_alcotest.to_alcotest prop_sort_matches_list_sort;
      ] );
    ( "storage.btree",
      [
        Alcotest.test_case "lookup" `Quick test_index_lookup;
        Alcotest.test_case "null keys excluded" `Quick
          test_index_null_keys_excluded;
        Alcotest.test_case "build and probe I/O accounting" `Quick
          test_index_build_costs_io;
        Alcotest.test_case "multi-level tree" `Quick test_btree_multi_level;
        Alcotest.test_case "range probes" `Quick test_btree_range;
        Alcotest.test_case "empty relation" `Quick test_btree_empty;
        Alcotest.test_case "probes decode entries in place" `Quick
          test_btree_probe_allocation;
      ] );
    ( "storage.stats",
      [
        Alcotest.test_case "column stats" `Quick test_stats_columns;
        Alcotest.test_case "selectivity" `Quick test_stats_selectivity;
        Alcotest.test_case "collection is I/O-free" `Quick test_stats_io_free;
      ] );
    ( "storage.catalog",
      [
        Alcotest.test_case "basics" `Quick test_catalog_basics;
        Alcotest.test_case "sorted_on metadata" `Quick test_catalog_sorted_on;
      ] );
  ]

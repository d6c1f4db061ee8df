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
  (* Construction is charged: the heap scan, sort runs and tree pages all
     show in the pager counters and in [build_io]. *)
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

(* Repeated probes of a seven-level tree (ten matches each, drained
   without keeping them, every page resident) search the page image and
   allocate only per probe and per match: [lookup] its state, the matches'
   array and an option per row, 66 words; a [range] cursor its closure
   and refs and an option per row, 56.  A probe that decoded each entry
   from its row allocated about 130, over 600 when each decode built a
   list. *)
let test_btree_probe_allocation () =
  let pager = Pager.create ~buffer_pages:2048 ~page_bytes:48 () in
  let heap = kv_heap pager (List.init 1000 (fun i -> (i mod 100, i))) in
  let idx = Btree.build pager heap ~key_col:0 in
  Alcotest.(check bool) "multi-level" true (Btree.height idx >= 3);
  let words_per_probe ~bound probe =
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
      (Printf.sprintf "%.1f words per probe (bound %.0f)" per_probe bound)
      true (per_probe < bound)
  in
  let count next =
    let rec go n = match next () with Some _ -> go (n + 1) | None -> n in
    go 0
  in
  words_per_probe ~bound:75. (fun k -> count (Btree.lookup idx (Value.Int k)));
  words_per_probe ~bound:65. (fun k ->
      let key = Some (Value.Int k, true) in
      count (Btree.range idx ?lo:key ?hi:key ()))

let test_btree_empty () =
  let pager = Pager.create ~buffer_pages:4 ~page_bytes:48 () in
  let heap = kv_heap pager [] in
  let idx = Btree.build pager heap ~key_col:0 in
  Alcotest.(check int) "no entries" 0 (Btree.entry_count idx);
  Alcotest.(check bool) "probe on empty" true
    (eq_rows idx (Value.Int 1) = []);
  let next = Btree.range idx () in
  Alcotest.(check bool) "range on empty" true (next () = None)

(* --- B-tree probes against a row-decoding reference ------------------- *)

(* The probe the image replaced, written out: each page decoded from its
   rows as it is requested, the start leaf requested twice (its search,
   then the walk's first page), a data page per match, the leaves the
   walk enters and the entry past the range.  The tree's root is its
   last page. *)
let reference_probe pager idx ~data ?lo ?hi () =
  let null = function Some (v, _) -> Value.is_null v | None -> false in
  if null lo || null hi then []
  else begin
    let file = Btree.file_id idx and leaves = Btree.leaf_page_count idx in
    let read p = Pager.read_page pager file p in
    let int r i =
      match Row.get r i with Value.Int n -> n | _ -> assert false
    in
    let below v rows =
      Array.fold_left
        (fun n r -> if Value.compare (Row.get r 0) v < 0 then n + 1 else n)
        0 rows
    in
    let rec descend p v =
      if p < leaves then p
      else
        let rows = read p in
        descend (int rows.(max 0 (below v rows - 1)) 1) v
    in
    let past_lo k =
      match lo with
      | None -> true
      | Some (v, incl) ->
          let c = Value.compare k v in
          if incl then c >= 0 else c > 0
    in
    let within_hi k =
      match hi with
      | None -> true
      | Some (v, incl) ->
          let c = Value.compare k v in
          if incl then c <= 0 else c < 0
    in
    let rec walk p rows i acc =
      if i >= Array.length rows then
        if p + 1 < leaves then walk (p + 1) (read (p + 1)) 0 acc
        else List.rev acc
      else
        let e = rows.(i) in
        let k = Row.get e 0 in
        if not (past_lo k) then walk p rows (i + 1) acc
        else if within_hi k then
          let row = (Pager.read_page pager data (int e 1)).(int e 2) in
          walk p rows (i + 1) (row :: acc)
        else List.rev acc
    in
    let start, slot =
      match lo with
      | None -> (0, 0)
      | Some (v, _) ->
          let leaf = descend (Btree.pages idx - 1) v in
          (leaf, below v (read leaf))
    in
    walk start (read start) slot []
  end

type key_kind = Int_keys | Date_keys | Str_keys

(* Key [x] of each kind, in the same order for every kind. *)
let key_value kind x =
  match kind with
  | Int_keys -> Value.Int x
  | Date_keys ->
      Value.Date { year = 2000; month = 1 + (x / 28); day = 1 + (x mod 28) }
  | Str_keys -> Value.Str (Printf.sprintf "k%04d" (x + 100))

type probe = Eq of int | Range of (int * bool) option * (int * bool) option

type btree_case = {
  pool : int;
  page_bytes : int;
  kind : key_kind;
  float_probes : bool; (* probe the INT keys with FLOAT values *)
  keys : int option list; (* stored keys are even: [2x]; None is NULL *)
  probes : probe list;
}

let btree_case_gen =
  let open QCheck2.Gen in
  let* pool = oneofl [ 2; 3; 8 ]
  and* page_bytes = oneofl [ 48; 72; 120 ]
  and* kind = oneofl [ Int_keys; Date_keys; Str_keys ]
  and* float_probes = bool
  and* span = int_range 0 20 in
  (* probes reach below the minimum, between keys and past the maximum *)
  let point = int_range (-3) ((2 * span) + 3) in
  let side = opt (pair point bool) in
  let* keys =
    list_size (int_range 0 120) (opt ~ratio:0.85 (int_range 0 span))
  and* probes =
    list_size (int_range 1 12)
      (frequency
         [
           (2, map (fun p -> Eq p) point);
           (3, map2 (fun lo hi -> Range (lo, hi)) side side);
         ])
  in
  return
    { pool; page_bytes; kind; float_probes = float_probes && kind = Int_keys;
      keys; probes }

let print_btree_case c =
  let side = function
    | None -> "-"
    | Some (p, incl) -> Printf.sprintf "%d%s" p (if incl then "]" else ")")
  in
  Printf.sprintf "pool=%d page_bytes=%d kind=%s float=%b keys=[%s] probes=[%s]"
    c.pool c.page_bytes
    (match c.kind with
    | Int_keys -> "int"
    | Date_keys -> "date"
    | Str_keys -> "str")
    c.float_probes
    (String.concat ";"
       (List.map
          (function None -> "NULL" | Some x -> string_of_int (2 * x))
          c.keys))
    (String.concat ";"
       (List.map
          (function
            | Eq p -> Printf.sprintf "=%d" p
            | Range (lo, hi) -> Printf.sprintf "%s..%s" (side lo) (side hi))
          c.probes))

(* One pool, heap and tree per case; equal cases build equal worlds. *)
let btree_world c =
  let pager = Pager.create ~buffer_pages:c.pool ~page_bytes:c.page_bytes () in
  let ty =
    match c.kind with
    | Int_keys -> Value.Tint
    | Date_keys -> Value.Tdate
    | Str_keys -> Value.Tstr
  in
  let schema = Schema.of_columns ~rel:"T" [ ("k", ty); ("v", Value.Tint) ] in
  let heap =
    Heap_file.of_relation pager
      (Relation.make schema
         (List.mapi
            (fun i k ->
              let key =
                match k with
                | None -> Value.Null
                | Some x -> key_value c.kind (2 * x)
              in
              Row.of_list [ key; Value.Int i ])
            c.keys))
  in
  let idx = Btree.build pager heap ~key_col:0 in
  (pager, Heap_file.file_id heap, idx)

let drain next =
  let rec go acc =
    match next () with Some r -> go (r :: acc) | None -> List.rev acc
  in
  go []

(* Property: [lookup] (equality probes) and [range] (every probe, an
   equality as a closed range) return the reference's rows, and after
   every probe the three pools' counters agree: the image moves no
   request. *)
let prop_btree_matches_reference =
  QCheck2.Test.make
    ~name:"lookup and range = row-decoding reference (rows, I/O)"
    ~count:300 ~print:print_btree_case btree_case_gen (fun c ->
      (* a FLOAT probe equals an even key, or falls halfway between two *)
      let value p =
        if not c.float_probes then key_value c.kind p
        else if p mod 2 = 0 then Value.Float (float_of_int p)
        else Value.Float (float_of_int p -. 0.5)
      in
      let bound = Option.map (fun (p, incl) -> (value p, incl)) in
      let pa, _, ia = btree_world c in
      let pb, _, ib = btree_world c in
      let pr, data, ir = btree_world c in
      let counters p =
        let s = Pager.stats p in
        (s.Pager.logical_reads, s.physical_reads, s.physical_writes)
      in
      List.for_all
        (fun probe ->
          let lo, hi =
            match probe with
            | Eq p -> (Some (value p, true), Some (value p, true))
            | Range (lo, hi) -> (bound lo, bound hi)
          in
          let a =
            match probe with
            | Eq p -> drain (Btree.lookup ia (value p))
            | Range _ -> drain (Btree.range ia ?lo ?hi ())
          in
          let b = drain (Btree.range ib ?lo ?hi ()) in
          let r = reference_probe pr ir ~data ?lo ?hi () in
          if a <> r || b <> r then
            QCheck2.Test.fail_reportf "rows: %d and %d against %d"
              (List.length a) (List.length b) (List.length r)
          else if counters pa <> counters pr || counters pb <> counters pr then
            QCheck2.Test.fail_report "pager counters differ"
          else true)
        c.probes)

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

(* Property: the one-pass statistics agree with their sort-based
   definition — distinct = the non-NULL values deduplicated by a sort
   under [Value.compare], min and max its ends — over NULL-dense,
   duplicate-heavy columns of each type, and over INT and FLOAT values
   that compare equal (kept within 2^53, where they compare and hash
   alike). *)
let stats_column_gen =
  let open QCheck2.Gen in
  let* null_pct = int_range 0 90 and* span = int_range 1 12 in
  let* ty =
    oneofl [ Value.Tint; Value.Tfloat; Value.Tdate; Value.Tstr ]
  and* mixed = bool in
  let value x =
    match ty with
    | Value.Tint -> Value.Int x
    | Value.Tfloat -> Value.Float (float_of_int x /. 2.)
    | Value.Tdate ->
        Value.Date
          {
            year = 1980 + (abs x mod 3);
            month = 1 + (abs x mod 12);
            day = 1 + abs x;
          }
    | Value.Tstr -> Value.Str (String.make (abs x mod 4) 'a' ^ string_of_int x)
  in
  let cell =
    let* null = map (fun p -> p < null_pct) (int_range 0 99)
    and* x = int_range (-span) span
    and* as_float = bool in
    return
      (if null then Value.Null
       else if mixed && ty = Value.Tint && as_float then
         Value.Float (float_of_int x)
       else value x)
  in
  let* column = list_size (int_range 0 60) cell in
  return (ty, column)

let prop_stats_match_sort =
  QCheck2.Test.make ~name:"one-pass stats = sort-based stats" ~count:300
    stats_column_gen (fun (ty, values) ->
      let rel =
        Relation.make
          (Schema.of_columns ~rel:"T" [ ("c", ty) ])
          (List.map (fun v -> Row.of_list [ v ]) values)
      in
      let got = Stats.column (Stats.of_relation rel) 0 in
      let non_null = List.filter (fun v -> not (Value.is_null v)) values in
      let sorted = List.sort_uniq Value.compare non_null in
      let same a b =
        match (a, b) with
        | Some a, Some b -> Value.equal a b
        | None, None -> true
        | _ -> false
      in
      got.Stats.distinct = List.length sorted
      && got.nulls = List.length values - List.length non_null
      && same got.min (List.nth_opt sorted 0)
      && same got.max (List.nth_opt (List.rev sorted) 0))

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
        QCheck_alcotest.to_alcotest prop_btree_matches_reference;
      ] );
    ( "storage.stats",
      [
        Alcotest.test_case "column stats" `Quick test_stats_columns;
        Alcotest.test_case "selectivity" `Quick test_stats_selectivity;
        Alcotest.test_case "collection is I/O-free" `Quick test_stats_io_free;
        QCheck_alcotest.to_alcotest prop_stats_match_sort;
      ] );
    ( "storage.catalog",
      [
        Alcotest.test_case "basics" `Quick test_catalog_basics;
        Alcotest.test_case "sorted_on metadata" `Quick test_catalog_sorted_on;
      ] );
  ]

(* Simulated disk + LRU buffer pool.

   The paper's evaluation metric is the number of disk page I/Os, with B
   pages of main-memory buffer available.  This module provides exactly that
   accounting: a "disk" of pages (arrays of rows), a buffer pool of at most
   [buffer_pages] frames with LRU replacement, and counters distinguishing
   logical page requests from physical reads (pool misses) and physical
   writes.  All operators perform their page traffic through a [Pager.t], so
   the benches can report measured I/O next to the paper's analytic
   formulas.

   The recency structure is a hashtable of frames threaded on an intrusive
   doubly-linked list (most recently used at the head), so a page touch —
   hit, miss or insertion — costs O(1) regardless of the pool size.  This
   matters for the measured experiments: with the earlier list-based LRU a
   page touch cost O(B), so enlarging the buffer pool made every *logical*
   read slower and wall-clock measurements conflated plan structure with
   bookkeeping overhead. *)

module Row = Relalg.Row

type file_id = int

type page = Row.t array

type key = file_id * int

type stats = {
  mutable logical_reads : int;
  mutable physical_reads : int;
  mutable physical_writes : int;
}

(* A buffer frame, intrusively linked in recency order.  [prev] is toward
   the MRU end, [next] toward the LRU end. *)
type frame = {
  f_key : key;
  f_page : page;
  mutable prev : frame option;
  mutable next : frame option;
}

type t = {
  buffer_pages : int;
  page_bytes : int;
  disk : (key, page) Hashtbl.t;
  frames : (key, frame) Hashtbl.t;
  mutable mru : frame option; (* most recently used *)
  mutable lru_end : frame option; (* least recently used *)
  mutable n_frames : int;
  stats : stats;
  mutable next_file : file_id;
  file_pages : (file_id, int ref) Hashtbl.t;
}

let create ?(buffer_pages = 8) ?(page_bytes = 4096) () =
  if buffer_pages < 2 then invalid_arg "Pager.create: need at least 2 buffer pages";
  {
    buffer_pages;
    page_bytes;
    disk = Hashtbl.create 256;
    frames = Hashtbl.create (2 * buffer_pages);
    mru = None;
    lru_end = None;
    n_frames = 0;
    stats = { logical_reads = 0; physical_reads = 0; physical_writes = 0 };
    next_file = 0;
    file_pages = Hashtbl.create 16;
  }

let buffer_pages t = t.buffer_pages
let page_bytes t = t.page_bytes
let stats t = t.stats

let reset_stats t =
  t.stats.logical_reads <- 0;
  t.stats.physical_reads <- 0;
  t.stats.physical_writes <- 0

(* Snapshot/restore used by benches to measure a single phase. *)
let snapshot t = (t.stats.logical_reads, t.stats.physical_reads, t.stats.physical_writes)

let diff_since t (lr, pr, pw) =
  {
    logical_reads = t.stats.logical_reads - lr;
    physical_reads = t.stats.physical_reads - pr;
    physical_writes = t.stats.physical_writes - pw;
  }

let total_io s = s.physical_reads + s.physical_writes

let pp_stats ppf s =
  Fmt.pf ppf "logical=%d physical_reads=%d physical_writes=%d total_io=%d"
    s.logical_reads s.physical_reads s.physical_writes (total_io s)

(* Run [f] without perturbing the I/O counters (catalog-internal work such
   as statistics collection, which a real system would amortize). *)
let without_accounting t f =
  let saved = (t.stats.logical_reads, t.stats.physical_reads, t.stats.physical_writes) in
  Fun.protect f ~finally:(fun () ->
      let lr, pr, pw = saved in
      t.stats.logical_reads <- lr;
      t.stats.physical_reads <- pr;
      t.stats.physical_writes <- pw)

let create_file t =
  let id = t.next_file in
  t.next_file <- id + 1;
  Hashtbl.replace t.file_pages id (ref 0);
  id

type mark = file_id

let mark t = t.next_file

let files_since t mark =
  Hashtbl.fold
    (fun file _ acc -> if file >= mark then file :: acc else acc)
    t.file_pages []

let file_count t = Hashtbl.length t.file_pages
let disk_pages t = Hashtbl.length t.disk

let page_count t file =
  match Hashtbl.find_opt t.file_pages file with
  | Some r -> !r
  | None -> invalid_arg "Pager.page_count: unknown file"

(* ---- intrusive recency list ---------------------------------------- *)

let unlink t fr =
  (match fr.prev with
  | Some p -> p.next <- fr.next
  | None -> t.mru <- fr.next);
  (match fr.next with
  | Some n -> n.prev <- fr.prev
  | None -> t.lru_end <- fr.prev);
  fr.prev <- None;
  fr.next <- None

let push_front t fr =
  fr.prev <- None;
  fr.next <- t.mru;
  (match t.mru with Some m -> m.prev <- Some fr | None -> t.lru_end <- Some fr);
  t.mru <- Some fr

let evict_beyond_capacity t =
  while t.n_frames > t.buffer_pages do
    match t.lru_end with
    | None -> assert false (* n_frames > 0 implies a tail *)
    | Some victim ->
        unlink t victim;
        Hashtbl.remove t.frames victim.f_key;
        t.n_frames <- t.n_frames - 1
  done

(* The write-through policy means eviction never incurs I/O (no dirty
   pages). *)
let insert_frame t key page =
  (match Hashtbl.find_opt t.frames key with
  | Some old ->
      unlink t old;
      Hashtbl.remove t.frames key;
      t.n_frames <- t.n_frames - 1
  | None -> ());
  let fr = { f_key = key; f_page = page; prev = None; next = None } in
  Hashtbl.replace t.frames key fr;
  push_front t fr;
  t.n_frames <- t.n_frames + 1;
  evict_beyond_capacity t

let read_page t file i : page =
  let key = (file, i) in
  t.stats.logical_reads <- t.stats.logical_reads + 1;
  match Hashtbl.find_opt t.frames key with
  | Some fr ->
      (match t.mru with
      | Some m when m == fr -> () (* already most recent *)
      | _ ->
          unlink t fr;
          push_front t fr);
      fr.f_page
  | None -> (
      match Hashtbl.find_opt t.disk key with
      | None -> invalid_arg "Pager.read_page: no such page"
      | Some page ->
          t.stats.physical_reads <- t.stats.physical_reads + 1;
          insert_frame t key page;
          page)

let append_page t file (rows : Row.t array) =
  let counter =
    match Hashtbl.find_opt t.file_pages file with
    | Some r -> r
    | None -> invalid_arg "Pager.append_page: unknown file"
  in
  let i = !counter in
  incr counter;
  let key = (file, i) in
  Hashtbl.replace t.disk key rows;
  t.stats.physical_writes <- t.stats.physical_writes + 1;
  insert_frame t key rows

let delete_file t file =
  let n = page_count t file in
  for i = 0 to n - 1 do
    let key = (file, i) in
    Hashtbl.remove t.disk key;
    match Hashtbl.find_opt t.frames key with
    | None -> ()
    | Some fr ->
        unlink t fr;
        Hashtbl.remove t.frames key;
        t.n_frames <- t.n_frames - 1
  done;
  Hashtbl.remove t.file_pages file

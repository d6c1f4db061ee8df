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
   bookkeeping overhead.  A page touch also allocates nothing: the page
   address is one immediate int, the tables hash and compare it
   monomorphically, and the list is circular through a sentinel frame, so
   relinking a frame stores no option.  Eviction takes the list's tail,
   never a table's order, so the counters do not depend on the tables. *)

module Row = Relalg.Row

type file_id = int

type page = Row.t array

(* A page address: the file id above [page_bits], the page number below
   (so a file holds fewer than 2^31 pages). *)
type key = int

let page_bits = 31

let key file i =
  if i lsr page_bits <> 0 then invalid_arg "Pager: page number out of range";
  (file lsl page_bits) lor i

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal = Int.equal

  (* Consecutive pages land in consecutive buckets; files are spread by
     an odd multiplier. *)
  let hash k =
    ((k lsr page_bits) * 0x9E3779B1) + (k land ((1 lsl page_bits) - 1))
end)

type stats = {
  mutable logical_reads : int;
  mutable physical_reads : int;
  mutable physical_writes : int;
}

(* A buffer frame, intrusively linked in recency order.  [prev] is toward
   the MRU end, [next] toward the LRU end; the list is circular through
   the pool's sentinel. *)
type frame = {
  f_key : key;
  f_page : page;
  mutable prev : frame;
  mutable next : frame;
}

type t = {
  buffer_pages : int;
  page_bytes : int;
  disk : page Tbl.t;
  frames : frame Tbl.t;
  lru : frame; (* sentinel: [lru.next] is the MRU frame, [lru.prev] the LRU *)
  stats : stats;
  mutable next_file : file_id;
  file_pages : (file_id, int ref) Hashtbl.t;
}

let create ?(buffer_pages = 8) ?(page_bytes = 4096) () =
  if buffer_pages < 2 then invalid_arg "Pager.create: need at least 2 buffer pages";
  let rec lru = { f_key = -1; f_page = [||]; prev = lru; next = lru } in
  {
    buffer_pages;
    page_bytes;
    disk = Tbl.create 256;
    frames = Tbl.create (2 * buffer_pages);
    lru;
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
let disk_pages t = Tbl.length t.disk

let page_count t file =
  match Hashtbl.find_opt t.file_pages file with
  | Some r -> !r
  | None -> invalid_arg "Pager.page_count: unknown file"

(* ---- intrusive recency list ---------------------------------------- *)

let unlink fr =
  fr.prev.next <- fr.next;
  fr.next.prev <- fr.prev

let push_front t fr =
  fr.prev <- t.lru;
  fr.next <- t.lru.next;
  t.lru.next.prev <- fr;
  t.lru.next <- fr

(* A dropped frame's links are pointed at the sentinel, not left at its
   old neighbours: dead frames left linked to each other measurably
   raised peak memory and GC work. *)
let drop_frame t fr =
  unlink fr;
  fr.prev <- t.lru;
  fr.next <- t.lru;
  Tbl.remove t.frames fr.f_key

let evict_beyond_capacity t =
  while Tbl.length t.frames > t.buffer_pages do
    drop_frame t t.lru.prev
  done

(* The write-through policy means eviction never incurs I/O (no dirty
   pages). *)
let insert_frame t key page =
  (match Tbl.find t.frames key with
  | old -> drop_frame t old
  | exception Not_found -> ());
  let fr = { f_key = key; f_page = page; prev = t.lru; next = t.lru } in
  Tbl.replace t.frames key fr;
  push_front t fr;
  evict_beyond_capacity t

let read_page t file i : page =
  t.stats.logical_reads <- t.stats.logical_reads + 1;
  let key = key file i in
  match Tbl.find t.frames key with
  | fr ->
      if t.lru.next != fr then begin
        unlink fr;
        push_front t fr
      end;
      fr.f_page
  | exception Not_found -> (
      match Tbl.find t.disk key with
      | exception Not_found -> invalid_arg "Pager.read_page: no such page"
      | page ->
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
  let key = key file i in
  Tbl.replace t.disk key rows;
  t.stats.physical_writes <- t.stats.physical_writes + 1;
  insert_frame t key rows

let delete_file t file =
  let n = page_count t file in
  for i = 0 to n - 1 do
    let key = key file i in
    Tbl.remove t.disk key;
    match Tbl.find t.frames key with
    | fr -> drop_frame t fr
    | exception Not_found -> ()
  done;
  Hashtbl.remove t.file_pages file

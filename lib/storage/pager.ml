(* Simulated disk + LRU buffer pool.

   The paper's evaluation metric is the number of disk page I/Os, with B
   pages of main-memory buffer available.  This module provides exactly that
   accounting: a "disk" of pages (arrays of rows), a buffer pool of at most
   [buffer_pages] frames with LRU replacement, and counters distinguishing
   logical page requests from physical reads (pool misses) and physical
   writes.  All operators perform their page traffic through a [Pager.t], so
   the benches can report measured I/O next to the paper's analytic
   formulas.

   Everything is flat arrays.  A live file keeps its pages in a growable
   array, and beside it, per page, the frame holding it (-1 when the page
   is not resident).  The B frames are parallel int arrays — the owning
   file's slot, the page number and the [prev]/[next] recency links — with
   index B as the sentinel of a circular list (most recently used first),
   and a stack hands out free frames.  A page request is two array loads
   (the file table, then the page's frame); a hit relinks the frame, a miss
   takes a free frame or evicts the list's tail.  Both write only ints, so
   neither allocates nor runs the GC's write barrier ([caml_modify], which
   every pointer store into a major-heap block pays).  That matters
   because frames live long: relinking frame records, each a barrier,
   plus a hash probe per request, was most of the pool's cost on nested
   iteration's repeated inner scans.  A frame holds no page pointer — the
   page is reached through its file — so the pool keeps nothing dead
   alive.

   A file id is a slot in the file table plus the slot's generation.  A
   deleted file's slot is reused with the next generation, so a stale id
   still fails, and memory is bounded by the pool and the live files, not
   by the number of files ever created.  Eviction takes the list's tail,
   the least recently used frame, so the counters depend on the LRU order
   alone, never on where a frame or file sits in the arrays. *)

module Row = Relalg.Row

type page = Row.t array

(* The slot in the low [slot_bits] bits, its generation above. *)
type file_id = int

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1

type stats = {
  mutable logical_reads : int;
  mutable physical_reads : int;
  mutable physical_writes : int;
}

(* A live file.  [frame_of.(i)] is the frame holding page [i], or -1;
   both arrays grow together and are valid below [npages]. *)
type file = {
  id : file_id;
  serial : int; (* its place in the sequence of creations *)
  mutable pages : page array;
  mutable frame_of : int array;
  mutable npages : int;
}

(* The occupant of a free slot; no file id equals its id. *)
let no_file = { id = -1; serial = -1; pages = [||]; frame_of = [||]; npages = 0 }

type t = {
  buffer_pages : int;
  page_bytes : int;
  stats : stats;
  (* frames 0 .. B-1; index B is the sentinel: [next.(B)] is the MRU
     frame, [prev.(B)] the LRU *)
  frame_slot : int array;
  frame_page : int array;
  prev : int array;
  next : int array;
  free_frames : int array; (* a stack of [nfree] frames *)
  mutable nfree : int;
  mutable files : file array; (* by slot *)
  mutable free_ids : file_id list; (* the next id of each free slot *)
  mutable live_files : int;
  mutable disk_pages : int;
  mutable created : int;
}

let create ?(buffer_pages = 8) ?(page_bytes = 4096) () =
  if buffer_pages < 2 then invalid_arg "Pager.create: need at least 2 buffer pages";
  let links = Array.make (buffer_pages + 1) buffer_pages in
  {
    buffer_pages;
    page_bytes;
    stats = { logical_reads = 0; physical_reads = 0; physical_writes = 0 };
    frame_slot = Array.make buffer_pages 0;
    frame_page = Array.make buffer_pages 0;
    prev = links;
    next = Array.copy links;
    free_frames = Array.init buffer_pages (fun k -> buffer_pages - 1 - k);
    nfree = buffer_pages;
    files = [||];
    free_ids = [];
    live_files = 0;
    disk_pages = 0;
    created = 0;
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

(* ---- files ---------------------------------------------------------- *)

let find t id msg =
  let slot = id land slot_mask in
  if slot >= Array.length t.files || t.files.(slot).id <> id then
    invalid_arg msg;
  t.files.(slot)

(* Double the file table; the new slots' first ids (generation 0) go on
   the free list, lowest first. *)
let grow_files t =
  let n = Array.length t.files in
  let n' = max 8 (2 * n) in
  t.files <- Array.append t.files (Array.make (n' - n) no_file);
  for slot = n' - 1 downto n do
    t.free_ids <- slot :: t.free_ids
  done

let rec create_file t =
  match t.free_ids with
  | [] ->
      grow_files t;
      create_file t
  | id :: rest ->
      t.free_ids <- rest;
      t.files.(id land slot_mask) <-
        { id; serial = t.created; pages = [||]; frame_of = [||]; npages = 0 };
      t.created <- t.created + 1;
      t.live_files <- t.live_files + 1;
      id

type mark = int

let mark t = t.created

let files_since t mark =
  Array.fold_left
    (fun acc f -> if f != no_file && f.serial >= mark then f.id :: acc else acc)
    [] t.files

let file_count t = t.live_files
let disk_pages t = t.disk_pages
let page_count t id = (find t id "Pager.page_count: unknown file").npages

(* ---- recency list --------------------------------------------------- *)

let unlink t fr =
  let p = t.prev.(fr) and n = t.next.(fr) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let push_front t fr =
  let s = t.buffer_pages in
  let head = t.next.(s) in
  t.prev.(fr) <- s;
  t.next.(fr) <- head;
  t.prev.(head) <- fr;
  t.next.(s) <- fr

(* A frame for page [i] of the file in [slot], made MRU: a free one, or
   the LRU frame, whose page stops being resident.  The write-through
   policy means eviction never incurs I/O (no dirty pages). *)
let take_frame t slot i =
  let fr =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free_frames.(t.nfree)
    end
    else begin
      let lru = t.prev.(t.buffer_pages) in
      unlink t lru;
      t.files.(t.frame_slot.(lru)).frame_of.(t.frame_page.(lru)) <- -1;
      lru
    end
  in
  t.frame_slot.(fr) <- slot;
  t.frame_page.(fr) <- i;
  push_front t fr;
  fr

let read_page t id i : page =
  t.stats.logical_reads <- t.stats.logical_reads + 1;
  let f = find t id "Pager.read_page: no such page" in
  if i < 0 || i >= f.npages then invalid_arg "Pager.read_page: no such page";
  let fr = f.frame_of.(i) in
  if fr < 0 then begin
    t.stats.physical_reads <- t.stats.physical_reads + 1;
    f.frame_of.(i) <- take_frame t (id land slot_mask) i
  end
  else if t.next.(t.buffer_pages) <> fr then begin
    unlink t fr;
    push_front t fr
  end;
  f.pages.(i)

let contents t id i : page =
  let f = find t id "Pager.contents: no such page" in
  if i < 0 || i >= f.npages then invalid_arg "Pager.contents: no such page";
  f.pages.(i)

let append_page t id (rows : Row.t array) =
  let f = find t id "Pager.append_page: unknown file" in
  let i = f.npages in
  if i = Array.length f.pages then begin
    let cap = max 4 (2 * i) in
    f.pages <- Array.append f.pages (Array.make (cap - i) [||]);
    f.frame_of <- Array.append f.frame_of (Array.make (cap - i) (-1))
  end;
  f.pages.(i) <- rows;
  f.npages <- i + 1;
  t.disk_pages <- t.disk_pages + 1;
  t.stats.physical_writes <- t.stats.physical_writes + 1;
  f.frame_of.(i) <- take_frame t (id land slot_mask) i

let delete_file t id =
  let f = find t id "Pager.delete_file: unknown file" in
  for i = 0 to f.npages - 1 do
    let fr = f.frame_of.(i) in
    if fr >= 0 then begin
      unlink t fr;
      t.free_frames.(t.nfree) <- fr;
      t.nfree <- t.nfree + 1
    end
  done;
  t.files.(id land slot_mask) <- no_file;
  (* the slot's next generation *)
  t.free_ids <- (id + (1 lsl slot_bits)) :: t.free_ids;
  t.live_files <- t.live_files - 1;
  t.disk_pages <- t.disk_pages - f.npages

(* Heap files: relations stored as sequences of pages.

   The number of tuples per page is fixed per file from the schema's
   estimated tuple width and the pager's page size — this is what makes
   Pi/Pj ("size in pages of relation Ri/Rj") well defined for the measured
   experiments.

   A heap also keeps a column image for the batch scan: the rows cut into
   chunks of [Column.max_rows], each chunk decoded into column vectors
   the first time a scan reaches it, from its pages' contents.  Later
   scans are handed the same vectors.  The image only saves CPU: decoding
   requests no page, and every scan hands a chunk out with its pages
   pending, for its consumer to request where a row-by-row scan would
   ([scan_chunks]), so logical reads, physical reads and LRU order do not
   depend on whether a chunk is decoded or found.  Each chunk keeps the
   rows it was decoded from beside its vectors, so a scan can hand out
   the stored rows themselves (rows are immutable, so sharing them is
   safe).  Flushed pages never change, so a chunk goes stale only when a
   flush grows the trailing partial chunk (dropped then) or the file is
   deleted (the whole image is dropped). *)

module Row = Relalg.Row
module Column = Relalg.Column
module Schema = Relalg.Schema
module Relation = Relalg.Relation

type t = {
  pager : Pager.t;
  file : Pager.file_id;
  schema : Schema.t;
  rows_per_page : int;
  mutable tuples : int;
  mutable tail : Row.t list; (* unflushed rows of the last partial page *)
  mutable tail_len : int; (* length of [tail]; appends must stay O(1) *)
  mutable starts : int array;
      (* [starts.(p)]: index of page [p]'s first row; grown by doubling *)
  mutable chunks : (int * Column.t array * Row.t array) option array;
      (* the column image: chunk [c] holds rows from [c * Column.max_rows],
         as (row count, one vector per column, the rows decoded); grown by
         doubling *)
}

let rows_per_page pager schema =
  max 1 (Pager.page_bytes pager / Schema.tuple_width_estimate schema)

let create pager schema =
  {
    pager;
    file = Pager.create_file pager;
    schema;
    rows_per_page = rows_per_page pager schema;
    tuples = 0;
    tail = [];
    tail_len = 0;
    starts = [||];
    chunks = [||];
  }

let schema t = t.schema
let tuple_count t = t.tuples
let file_id t = t.file

(* [a] with room for index [i], doubling; new cells hold [fill]. *)
let grown a i fill =
  if i < Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * (i + 1))) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let flush t =
  match t.tail with
  | [] -> ()
  | rows ->
      let first = t.tuples - t.tail_len in
      let p = Pager.page_count t.pager t.file in
      t.starts <- grown t.starts p 0;
      t.starts.(p) <- first;
      let c = first / Column.max_rows in
      if c < Array.length t.chunks then t.chunks.(c) <- None;
      Pager.append_page t.pager t.file (Array.of_list (List.rev rows));
      t.tail <- [];
      t.tail_len <- 0

let append t row =
  if Row.arity row <> Schema.arity t.schema then
    invalid_arg "Heap_file.append: row arity mismatch";
  t.tail <- row :: t.tail;
  t.tail_len <- t.tail_len + 1;
  t.tuples <- t.tuples + 1;
  if t.tail_len >= t.rows_per_page then flush t

let page_count t =
  Pager.page_count t.pager t.file + if t.tail = [] then 0 else 1

let of_relation pager relation =
  let t = create pager (Relation.schema relation) in
  List.iter (append t) (Relation.rows relation);
  flush t;
  t

(* Sequential scan as a row generator; page reads go through the pool. *)
let scan t : unit -> Row.t option =
  flush t;
  let npages = Pager.page_count t.pager t.file in
  let page = ref [||] in
  let page_no = ref 0 and row_no = ref 0 in
  let rec next () =
    if !row_no < Array.length !page then begin
      let r = !page.(!row_no) in
      incr row_no;
      Some r
    end
    else if !page_no < npages then begin
      page := Pager.read_page t.pager t.file !page_no;
      incr page_no;
      row_no := 0;
      next ()
    end
    else None
  in
  next

(* The pages of one chunk that its scan has not requested yet: pages
   [next, until) of the file, page [p] starting at row [starts.(p)], all
   at or after the chunk's first row [lo]; [read] requests one. *)
type pending = {
  mutable read : int -> unit;
  starts : int array;
  lo : int;
  mutable next : int;
  until : int;
}

type chunk = {
  len : int;
  cols : Column.t array;
  rows : Row.t array;
  pages : pending;
}

let no_pages = { read = ignore; starts = [||]; lo = 0; next = 0; until = 0 }

let request_below p row =
  while p.next < p.until && p.starts.(p.next) < row do
    p.read p.next;
    p.next <- p.next + 1
  done

let request_through p i = request_below p (p.lo + i + 1)
let request_all p = request_below p max_int

let wrap_requests p around =
  if p.next < p.until then begin
    let read = p.read in
    p.read <- (fun page -> around (fun () -> read page))
  end

(* Chunk-at-a-time scan over the column image.  Chunk [c] holds rows
   [lo, hi); its pages are the pages that start in [lo, hi), and it is
   handed out with them all pending: the consumer requests each before it
   uses a row at or past the page's first row ([request_through]), or all
   of them when it takes the chunk whole.  Pulling the next chunk first
   requests whatever the previous one left pending, so the requests keep
   the file's order.  A chunk missing from the image is decoded from the
   pages' contents, which reading does not count as a request: the pool
   sees exactly the requests of a row-by-row scan. *)
let scan_chunks t : unit -> chunk option =
  flush t;
  let npages = Pager.page_count t.pager t.file and total = t.tuples in
  let chunk = ref 0 and next_page = ref 0 and last = ref no_pages in
  let read p = ignore (Pager.read_page t.pager t.file p) in
  let decode lo hi =
    let rows = Array.make (hi - lo) [||] in
    (* the page before this chunk's first may hold its first rows *)
    let q = ref (max 0 (!next_page - 1)) in
    while !q < npages && t.starts.(!q) < hi do
      let page = Pager.contents t.pager t.file !q and start = t.starts.(!q) in
      let a = max lo start and b = min hi (start + Array.length page) in
      if a < b then Array.blit page (a - start) rows (a - lo) (b - a);
      incr q
    done;
    rows
  in
  fun () ->
    request_all !last;
    let c = !chunk in
    let lo = c * Column.max_rows in
    if lo >= total then None
    else begin
      incr chunk;
      let hi = min total (lo + Column.max_rows) in
      (* a scan begun before the last flush may have stored a shorter
         trailing chunk: only a whole one is reused *)
      let len, cols, rows =
        match if c < Array.length t.chunks then t.chunks.(c) else None with
        | Some ((n, _, _) as e) when n = hi - lo -> e
        | _ ->
            let rows = decode lo hi in
            let e = (hi - lo, Column.of_rows t.schema rows, rows) in
            t.chunks <- grown t.chunks c None;
            t.chunks.(c) <- Some e;
            e
      in
      let first = !next_page in
      while !next_page < npages && t.starts.(!next_page) < hi do
        incr next_page
      done;
      last := { read; starts = t.starts; lo; next = first; until = !next_page };
      Some { len; cols; rows; pages = !last }
    end

let to_relation t =
  let next = scan t in
  let rec collect acc =
    match next () with Some r -> collect (r :: acc) | None -> List.rev acc
  in
  Relation.make t.schema (collect [])

let delete t =
  t.tail <- [];
  t.tail_len <- 0;
  t.chunks <- [||];
  Pager.delete_file t.pager t.file

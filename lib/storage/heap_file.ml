(* Heap files: relations stored as sequences of pages.

   The number of tuples per page is fixed per file from the schema's
   estimated tuple width and the pager's page size — this is what makes
   Pi/Pj ("size in pages of relation Ri/Rj") well defined for the measured
   experiments.

   A heap also keeps a column image for the vectorized scan: the rows cut
   into chunks of [Column.max_rows], each chunk decoded into column
   vectors the first time a scan reaches it, from the pages that scan
   reads through the pool.  Later scans are handed the same vectors.  The
   image only saves CPU: every scan still requests each page through the
   pool at the point where it first needs a row of that page, so logical
   reads, physical reads and LRU order are those of a scan that decodes
   every time.  Each chunk keeps the rows it was decoded from beside its
   vectors, so a scan can hand out the stored rows themselves (rows are
   immutable, so sharing them is safe).  Flushed pages never change, so a chunk goes stale only
   when a flush grows the trailing partial chunk (dropped then) or the
   file is deleted (the whole image is dropped). *)

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

(* Chunk-at-a-time scan over the column image.  For chunk [c] (rows
   [lo, hi)) it reads through the pool, in order, every page that starts
   before [hi] and that this scan has not read yet: the pages a scan
   filling [Column.max_rows]-row batches row by row would read for that
   batch.  A chunk missing from the image is decoded from those pages and
   the last page read before them, which may hold the chunk's first
   rows. *)
let scan_chunks t : unit -> (int * Column.t array * Row.t array) option =
  flush t;
  let npages = Pager.page_count t.pager t.file and total = t.tuples in
  let chunk = ref 0 and next_page = ref 0 in
  let page = ref [||] and page_start = ref 0 (* the last page read *) in
  (* Copy the rows of the last page read that fall in
     [lo, lo + Array.length rows) into [rows]. *)
  let take rows lo =
    let a = max lo !page_start
    and b = min (lo + Array.length rows) (!page_start + Array.length !page) in
    if a < b then Array.blit !page (a - !page_start) rows (a - lo) (b - a)
  in
  let read_until hi rows lo =
    while !next_page < npages && t.starts.(!next_page) < hi do
      page := Pager.read_page t.pager t.file !next_page;
      page_start := t.starts.(!next_page);
      incr next_page;
      take rows lo
    done
  in
  fun () ->
    let c = !chunk in
    let lo = c * Column.max_rows in
    if lo >= total then None
    else begin
      incr chunk;
      let hi = min total (lo + Column.max_rows) in
      (* a scan begun before the last flush may have stored a shorter
         trailing chunk: only a whole one is reused *)
      match if c < Array.length t.chunks then t.chunks.(c) else None with
      | Some (n, _, _) as e when n = hi - lo ->
          read_until hi [||] lo;
          e
      | _ ->
          let rows = Array.make (hi - lo) [||] in
          take rows lo;
          read_until hi rows lo;
          let e = Some (hi - lo, Column.of_rows t.schema rows, rows) in
          t.chunks <- grown t.chunks c None;
          t.chunks.(c) <- e;
          e
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

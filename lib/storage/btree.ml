(* Paged B-trees over heap files.

   The paper's §7 cost comparison prices nested iteration assuming an
   index on the inner join column; reproducing the crossover against
   transformed plans needs a probe structure whose page traffic is real.
   This is a bulk-loaded B-tree: dense leaf entries [key; page; slot]
   sorted by key, fixed-fanout interior pages [sep_key; child_page] whose
   separator is the smallest key in the child's subtree.  All pages live
   in one pager file with the leaves first (pages 0..leaf_pages-1, so a
   range cursor walks consecutive page numbers) and the root last.

   Construction streams the data heap through {!External_sort} — scan,
   sorted runs, (B-1)-way merge, leaf packing, then interior levels built
   bottom-up — and every page it touches is charged to the pager counters
   (earlier the ISAM index hid this under [without_accounting], which made
   indexed plans look free next to the transformations they compete with).
   The bill is also captured in [build_io] so EXPLAIN can show it.

   Probes descend root-to-leaf with a binary search per interior page,
   O(height) page reads, then fetch qualifying data pages through the
   pool: honest measured cost, same as the heap scans it competes with. *)

module Value = Relalg.Value
module Row = Relalg.Row
module Schema = Relalg.Schema

type t = {
  pager : Pager.t;
  file : Pager.file_id; (* leaves first, then interior levels, root last *)
  data_file : Pager.file_id; (* the indexed heap's pages *)
  key_col : int;
  entries : int;
  leaf_pages : int;
  root : int; (* page number of the root within [file] *)
  height : int; (* levels including the leaf level; >= 1 *)
  build_io : Pager.stats; (* page traffic charged during construction *)
}

(* Fixed fanouts from the page size: leaf entries are key + two ints
   (~24 bytes), interior entries key + one int (~16 bytes). *)
let leaf_fanout pager = max 2 (Pager.page_bytes pager / 24)
let interior_fanout pager = max 2 (Pager.page_bytes pager / 16)

(* Entry fields read in place, arity checked: a probe decodes one entry per
   binary-search step and per leaf entry it walks, so decoding allocates
   nothing. *)
let field ~what ~arity (r : Row.t) i =
  if Row.arity r <> arity then invalid_arg ("Btree: corrupt " ^ what ^ " page");
  Row.get r i

let int_field ~what ~arity r i =
  match field ~what ~arity r i with
  | Value.Int n -> n
  | _ -> invalid_arg ("Btree: corrupt " ^ what ^ " page")

(* leaf entries are [key; page; slot], interior entries [sep_key; child] *)
let leaf_key r = field ~what:"leaf" ~arity:3 r 0
let leaf_page r = int_field ~what:"leaf" ~arity:3 r 1
let leaf_slot r = int_field ~what:"leaf" ~arity:3 r 2
let interior_key r = field ~what:"interior" ~arity:2 r 0
let interior_child r = int_field ~what:"interior" ~arity:2 r 1

(* ---------------- bulk load --------------------------------------------- *)

let entry_schema heap key_col =
  let key_ty = (Schema.column (Heap_file.schema heap) key_col).Schema.ty in
  Schema.of_columns ~rel:"btree"
    [ ("key", key_ty); ("page", Value.Tint); ("slot", Value.Tint) ]

let build pager (heap : Heap_file.t) ~key_col : t =
  Heap_file.flush heap;
  let before = Pager.snapshot pager in
  let data_file = Heap_file.file_id heap in
  (* Pass 1: scan the data pages (reads counted) into a temp heap of
     [key; page; slot] entries, skipping NULL keys — SQL comparisons never
     match them, so they have no place in the tree. *)
  let entries_heap = Heap_file.create pager (entry_schema heap key_col) in
  let npages = Pager.page_count pager data_file in
  for page = 0 to npages - 1 do
    let rows = Pager.read_page pager data_file page in
    Array.iteri
      (fun slot row ->
        let key = Row.get row key_col in
        if not (Value.is_null key) then
          Heap_file.append entries_heap
            (Row.of_list [ key; Value.Int page; Value.Int slot ]))
      rows
  done;
  Heap_file.flush entries_heap;
  (* Pass 2: external sort by key (full-row tiebreak keeps duplicate keys
     in (page, slot) order). *)
  let sorted = External_sort.sort pager ~key:[ 0 ] entries_heap in
  Heap_file.delete entries_heap;
  (* Pass 3: stream the sorted run into leaf pages of fixed fanout,
     remembering each leaf's first key for the level above. *)
  let file = Pager.create_file pager in
  let lf = leaf_fanout pager in
  let next = Heap_file.scan sorted in
  let leaf_seps = ref [] (* (first_key, page_no), reversed *) in
  let buf = ref [] and buf_len = ref 0 and nleaves = ref 0 in
  let total = ref 0 in
  let flush_leaf () =
    match !buf with
    | [] -> ()
    | rows ->
        (match List.rev rows with
        | first :: _ -> leaf_seps := (leaf_key first, !nleaves) :: !leaf_seps
        | [] -> ());
        Pager.append_page pager file (Array.of_list (List.rev rows));
        incr nleaves;
        buf := [];
        buf_len := 0
  in
  let rec drain () =
    match next () with
    | None -> ()
    | Some row ->
        buf := row :: !buf;
        incr buf_len;
        incr total;
        if !buf_len >= lf then flush_leaf ();
        drain ()
  in
  drain ();
  flush_leaf ();
  Heap_file.delete sorted;
  if !nleaves = 0 then begin
    (* Empty relation (or all-NULL keys): a single empty leaf keeps the
       descent and cursor logic total. *)
    Pager.append_page pager file [||];
    nleaves := 1
  end;
  (* Pass 4: interior levels bottom-up; each level summarizes the one
     below as [sep_key; child_page] rows until a single root remains. *)
  let inf = interior_fanout pager in
  let next_page = ref !nleaves in
  let rec build_levels seps height =
    match seps with
    | [] | [ _ ] ->
        let root =
          match seps with (_, p) :: _ -> p | [] -> !nleaves - 1
        in
        (root, height)
    | _ ->
        let rec pack acc level = function
          | [] -> List.rev level
          | rest ->
              let rec take n xs =
                if n = 0 then ([], xs)
                else
                  match xs with
                  | [] -> ([], [])
                  | x :: tl ->
                      let chunk, rem = take (n - 1) tl in
                      (x :: chunk, rem)
              in
              let chunk, rem = take inf rest in
              let rows =
                List.map
                  (fun (key, child) -> Row.of_list [ key; Value.Int child ])
                  chunk
              in
              Pager.append_page pager file (Array.of_list rows);
              let page_no = !next_page in
              incr next_page;
              let sep =
                match chunk with
                | (key, _) :: _ -> (key, page_no)
                | [] -> assert false
              in
              ignore acc;
              pack acc (sep :: level) rem
        in
        let above = pack () [] seps in
        build_levels above (height + 1)
  in
  let root, height = build_levels (List.rev !leaf_seps) 1 in
  let build_io = Pager.diff_since pager before in
  {
    pager;
    file;
    data_file;
    key_col;
    entries = !total;
    leaf_pages = !nleaves;
    root;
    height;
    build_io;
  }

(* ---------------- descent and cursors ----------------------------------- *)

let read_page t p = Pager.read_page t.pager t.file p
let is_leaf t p = p < t.leaf_pages

(* Child that may hold the first entry with key >= [v]: the last child
   whose separator is < [v] (clamped to the first child).  If that child's
   keys are all < [v] the answer lives in its right sibling, which the
   leaf-level walk reaches because leaf pages are consecutive. *)
let descend_step t page v =
  let rows = read_page t page in
  let n = Array.length rows in
  (* binary search: count of separators < v *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Value.compare (interior_key rows.(mid)) v < 0 then go (mid + 1) hi
      else go lo mid
  in
  let pos = go 0 n in
  let i = max 0 (pos - 1) in
  if n = 0 then invalid_arg "Btree.descend_step: empty interior page"
  else interior_child rows.(i)

let rec descend t page v =
  if is_leaf t page then page else descend t (descend_step t page v) v

(* First slot in leaf [rows] with key >= [v]. *)
let leaf_lower_bound rows v =
  let n = Array.length rows in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Value.compare (leaf_key rows.(mid)) v < 0 then go (mid + 1) hi
      else go lo mid
  in
  go 0 n

type bound = Value.t * bool (* value, inclusive? *)

(* Entry cursor over the leaf level for keys within [lo, hi]; yields the
   leaf entries.  NULL bounds match nothing (SQL semantics). *)
let entry_cursor t ?(lo : bound option) ?(hi : bound option) () :
    unit -> Row.t option =
  let null_bound = function
    | Some (v, _) -> Value.is_null v
    | None -> false
  in
  if null_bound lo || null_bound hi then fun () -> None
  else begin
    let start_page, start_slot =
      match lo with
      | None -> (0, 0)
      | Some (v, _) ->
          let leaf = descend t t.root v in
          (leaf, leaf_lower_bound (read_page t leaf) v)
    in
    let page_no = ref start_page and slot = ref start_slot in
    let rows = ref (read_page t start_page) in
    let past_lo key =
      match lo with
      | None -> true
      | Some (v, incl) ->
          let c = Value.compare key v in
          if incl then c >= 0 else c > 0
    in
    let within_hi key =
      match hi with
      | None -> true
      | Some (v, incl) ->
          let c = Value.compare key v in
          if incl then c <= 0 else c < 0
    in
    let rec next () =
      if !slot >= Array.length !rows then
        if !page_no + 1 < t.leaf_pages then begin
          incr page_no;
          rows := read_page t !page_no;
          slot := 0;
          next ()
        end
        else None
      else begin
        let entry = !rows.(!slot) in
        let key = leaf_key entry in
        incr slot;
        if not (past_lo key) then next () (* exclusive lo: skip equals *)
        else if within_hi key then Some entry
        else None
      end
    in
    next
  end

(* Data-row cursor: entries in key order, rows fetched through the pool. *)
let range t ?lo ?hi () : unit -> Row.t option =
  let entries = entry_cursor t ?lo ?hi () in
  fun () ->
    match entries () with
    | None -> None
    | Some entry ->
        let data = Pager.read_page t.pager t.data_file (leaf_page entry) in
        Some data.(leaf_slot entry)

let range_cost t ~sel ~matches =
  float_of_int t.height +. ceil (sel *. float_of_int t.leaf_pages) +. matches

let pages t = Pager.page_count t.pager t.file
let leaf_page_count t = t.leaf_pages
let entry_count t = t.entries
let height t = t.height
let file_id t = t.file
let key_col t = t.key_col
let build_io t = t.build_io
let delete t = Pager.delete_file t.pager t.file

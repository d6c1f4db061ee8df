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
   (an index built off the books makes indexed plans look free next to
   the transformations they compete with).
   The bill is also captured in [build_io] so EXPLAIN can show it.

   Probes descend root-to-leaf with a binary search per interior page,
   O(height) page reads, then fetch qualifying data pages through the
   pool: honest measured cost, same as the heap scans it competes with.

   The searches run over a per-page image, as a heap's batch scan runs
   over its column image: each page is decoded once, the first time a
   probe reaches it, from its contents into flat arrays (INT and DATE
   keys unboxed, child pages, data page and slot pairs).  Decoding
   requests nothing; every probe still requests each page it searches,
   in the order a walk over the stored rows would, so the image saves CPU
   (a boxed compare and an arity check per search step, a cursor per
   probe) and leaves logical reads, physical reads and LRU order as they
   were.  Tree pages never change once built, so the image never goes
   stale. *)

module Value = Relalg.Value
module Row = Relalg.Row
module Schema = Relalg.Schema

(* A page's keys, unboxed where the key type allows: INT keys as ints,
   DATE keys as [Value.date_key]s, any other type boxed.  A page whose
   keys do not all fit the unboxed form (never one built from a typed
   column) keeps them boxed. *)
type keys =
  | Ints of int array
  | Dates of int array
  | Values of Value.t array

(* A page's image: its keys, and per entry the child page (interior) or
   the data page and slot (leaf; [slots] is empty on interior pages). *)
type node = { keys : keys; refs : int array; slots : int array }

let undecoded = { keys = Values [||]; refs = [||]; slots = [||] }

type t = {
  pager : Pager.t;
  file : Pager.file_id; (* leaves first, then interior levels, root last *)
  data_file : Pager.file_id; (* the indexed heap's pages *)
  key_col : int;
  key_ty : Value.ty;
  entries : int;
  leaf_pages : int;
  root : int; (* page number of the root within [file] *)
  height : int; (* levels including the leaf level; >= 1 *)
  build_io : Pager.stats; (* page traffic charged during construction *)
  image : node array; (* by page; [undecoded] until first searched *)
}

let int_field (r : Row.t) i =
  match r.(i) with Value.Int n -> n | _ -> invalid_arg "Btree: corrupt page"

let decode_keys ty (rows : Row.t array) =
  let key (r : Row.t) = r.(0) in
  let unboxed f =
    match Array.map (fun r -> f (key r)) rows with
    | a -> Some a
    | exception Exit -> None
  in
  let int = function Value.Int n -> n | _ -> raise Exit in
  let date = function Value.Date d -> Value.date_key d | _ -> raise Exit in
  match ty with
  | Value.Tint -> (
      match unboxed int with
      | Some a -> Ints a
      | None -> Values (Array.map key rows))
  | Value.Tdate -> (
      match unboxed date with
      | Some a -> Dates a
      | None -> Values (Array.map key rows))
  | Value.Tfloat | Value.Tstr -> Values (Array.map key rows)

(* [Value.compare] of key [i] and [v]: on ints when [v] has the keys'
   unboxed type, else on the key boxed again. *)
let compare_key keys i v =
  match (keys, v) with
  | Ints a, Value.Int n -> Int.compare a.(i) n
  | Dates a, Value.Date d -> Int.compare a.(i) (Value.date_key d)
  | Ints a, _ -> Value.compare (Value.Int a.(i)) v
  | Dates a, _ ->
      let k = a.(i) in
      let year = k / 10000 and month = k / 100 mod 100 and day = k mod 100 in
      Value.compare (Value.Date { year; month; day }) v
  | Values a, _ -> Value.compare a.(i) v

let key_count = function
  | Ints a | Dates a -> Array.length a
  | Values a -> Array.length a

(* First position in [lo, hi) whose key is >= [v] (a binary search
   without a closure: probes run it once per level). *)
let rec search keys v lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if compare_key keys mid v < 0 then search keys v (mid + 1) hi
    else search keys v lo mid

let lower_bound keys v = search keys v 0 (key_count keys)

(* Fixed fanouts from the page size: leaf entries are key + two ints
   (~24 bytes), interior entries key + one int (~16 bytes). *)
let leaf_fanout pager = max 2 (Pager.page_bytes pager / 24)
let interior_fanout pager = max 2 (Pager.page_bytes pager / 16)

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
        | first :: _ -> leaf_seps := (Row.get first 0, !nleaves) :: !leaf_seps
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
    key_ty = (Schema.column (Heap_file.schema heap) key_col).Schema.ty;
    entries = !total;
    leaf_pages = !nleaves;
    root;
    height;
    build_io;
    image = Array.make (Pager.page_count pager file) undecoded;
  }

(* ---------------- the page image ---------------------------------------- *)

(* Page [p]'s image, decoded from its contents on first use.  Decoding
   requests nothing: the pool only sees the request the walk makes
   beside it ([request]). *)
let image t p =
  let node = t.image.(p) in
  if node != undecoded then node
  else begin
    let rows = Pager.contents t.pager t.file p in
    let node =
      {
        keys = decode_keys t.key_ty rows;
        refs = Array.map (fun r -> int_field r 1) rows;
        slots =
          (if p < t.leaf_pages then Array.map (fun r -> int_field r 2) rows
           else [||]);
      }
    in
    t.image.(p) <- node;
    node
  end

(* Request page [p] through the pool, as a walk over stored rows would,
   and search its image. *)
let request t p =
  ignore (Pager.read_page t.pager t.file p);
  image t p

(* ---------------- descent and cursors ----------------------------------- *)

(* Child that may hold the first entry with key >= [v]: the last child
   whose separator is < [v] (clamped to the first child).  If that child's
   keys are all < [v] the answer lives in its right sibling, which the
   leaf-level walk reaches because leaf pages are consecutive. *)
let rec descend t page v =
  if page < t.leaf_pages then page
  else begin
    let node = request t page in
    if Array.length node.refs = 0 then
      invalid_arg "Btree.descend: empty interior page";
    descend t node.refs.(max 0 (lower_bound node.keys v - 1)) v
  end

(* The data row leaf entry [i] of [node] points at, requested through
   the pool. *)
let fetch t node i =
  (Pager.read_page t.pager t.data_file node.refs.(i)).(node.slots.(i))

type bound = Value.t * bool (* value, inclusive? *)

(* Rows with keys within [lo, hi], in key order, fetched as the walk
   reaches them.  NULL bounds match nothing (SQL semantics).  Opening
   requests the descent and the start leaf twice: once for its search,
   once as the walk's first page. *)
let range t ?(lo : bound option) ?(hi : bound option) () :
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
          (leaf, lower_bound (request t leaf).keys v)
    in
    let page_no = ref start_page and slot = ref start_slot in
    let node = ref (request t start_page) in
    let past_lo keys i =
      match lo with
      | None -> true
      | Some (v, incl) ->
          let c = compare_key keys i v in
          if incl then c >= 0 else c > 0
    in
    let within_hi keys i =
      match hi with
      | None -> true
      | Some (v, incl) ->
          let c = compare_key keys i v in
          if incl then c <= 0 else c < 0
    in
    let rec next () =
      let n = !node and i = !slot in
      if i >= Array.length n.refs then
        if !page_no + 1 < t.leaf_pages then begin
          incr page_no;
          node := request t !page_no;
          slot := 0;
          next ()
        end
        else None
      else begin
        incr slot;
        if not (past_lo n.keys i) then next () (* exclusive lo: skip equals *)
        else if within_hi n.keys i then Some (fetch t n i)
        else None
      end
    in
    next
  end

(* The leaf walk of an equality probe from entry [slot] of leaf [page]
   ([node] its image): it passes keys below [v], takes each key equal to
   [v] and stops at the first key above it or at the last leaf's end;
   returns the matches, counting from [hits].  [~fetching] makes the
   requests the [range] cursor makes — each leaf entered after the first,
   and each match's data page, its row stored in [out] — and without it
   the walk reads the image only. *)
let rec walk_matches t ~fetching out node page slot v hits =
  if slot >= Array.length node.refs then
    if page + 1 < t.leaf_pages then
      let page = page + 1 in
      let node = if fetching then request t page else image t page in
      walk_matches t ~fetching out node page 0 v hits
    else hits
  else
    let c = compare_key node.keys slot v in
    if c < 0 then walk_matches t ~fetching out node page (slot + 1) v hits
    else if c = 0 then begin
      if fetching then out.(hits) <- fetch t node slot;
      walk_matches t ~fetching out node page (slot + 1) v (hits + 1)
    end
    else hits

type lookup = {
  tree : t;
  key : Value.t;
  leaf : int; (* the start leaf, [slot] its first key >= [key] *)
  slot : int;
  mutable rows : Row.t array; (* the matches, once fetched *)
  mutable next : int; (* the next match to return; -1 before the fetch *)
}

(* The first pull counts the matches in the image, then fetches them with
   the requests the [range] cursor would make: each match's data page in
   key order, the leaves entered on the way, and the one past the last
   match. *)
let pull l =
  if l.next < 0 then begin
    let t = l.tree in
    let node = image t l.leaf in
    let n = walk_matches t ~fetching:false [||] node l.leaf l.slot l.key 0 in
    let rows = Array.make n [||] in
    ignore (walk_matches t ~fetching:true rows node l.leaf l.slot l.key 0);
    l.rows <- rows;
    l.next <- 0
  end;
  if l.next < Array.length l.rows then begin
    let row = l.rows.(l.next) in
    l.next <- l.next + 1;
    Some row
  end
  else None

let lookup t v : unit -> Row.t option =
  if Value.is_null v then fun () -> None
  else begin
    let leaf = descend t t.root v in
    let slot = lower_bound (request t leaf).keys v in
    (* the walk's first page: the start leaf, requested again *)
    ignore (request t leaf);
    let l = { tree = t; key = v; leaf; slot; rows = [||]; next = -1 } in
    fun () -> pull l
  end

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

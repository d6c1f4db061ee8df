(* Batch-at-a-time physical operators.

   The design follows the MonetDB/X100 lineage: pull column chunks of up
   to [Batch.max_rows] rows (a scan's come straight from its heap's column
   image), evaluate predicates as tight loops over unboxed arrays with
   selection-vector compaction, amortize all per-call bookkeeping over the
   batch.  Every semantic decision (3VL comparisons, NULL handling in keys
   and aggregates, Int/Float numeric unification) delegates to the same
   [Eval]/[Value] rules the row operators use; the differential oracle
   holds the plans to an independent evaluator over the whole query
   matrix. *)

module Value = Relalg.Value
module Truth = Relalg.Truth
module Schema = Relalg.Schema
module Row = Relalg.Row
module Heap_file = Storage.Heap_file
open Sql.Ast

type t = { schema : Schema.t; next_batch : unit -> Batch.t option }

let schema t = t.schema

(* ------------------------------------------------------------------ *)
(* Adapters                                                            *)
(* ------------------------------------------------------------------ *)

(* Rows into batches.  The buffer starts small and doubles up to
   [Batch.max_rows], so an input of a few rows (an index probe's matches)
   allocates for what it holds; a batch cut short by the input's end is
   the last, and the input is not pulled again. *)
let of_tuple (it : Iterator.t) : t =
  let ended = ref false in
  let next_batch () =
    if !ended then None
    else
      match it.Iterator.next () with
      | None ->
          ended := true;
          None
      | Some first ->
          let buf = ref (Array.make 8 first) in
          let n = ref 1 in
          while !n < Batch.max_rows && not !ended do
            match it.Iterator.next () with
            | Some r ->
                if !n = Array.length !buf then begin
                  let grown =
                    Array.make (min Batch.max_rows (2 * !n)) first
                  in
                  Array.blit !buf 0 grown 0 !n;
                  buf := grown
                end;
                !buf.(!n) <- r;
                incr n
            | None -> ended := true
          done;
          let rows =
            if !n = Array.length !buf then !buf else Array.sub !buf 0 !n
          in
          Some (Batch.of_rows it.Iterator.schema rows)
  in
  { schema = it.Iterator.schema; next_batch }

(* Each row is handed out after the pages a row-by-row scan would have
   requested by then; a batch's remaining pages go before the next batch
   is pulled. *)
let to_tuple (v : t) : Iterator.t =
  let cur = ref None (* (batch, live indices, cursor) *) in
  let rec next () =
    match !cur with
    | Some (b, idxs, pos) when !pos < Array.length idxs ->
        let i = idxs.(!pos) in
        incr pos;
        Heap_file.request_through b.Batch.pages i;
        Some (Batch.row b i)
    | finished -> (
        Option.iter
          (fun (b, _, _) -> Heap_file.request_all b.Batch.pages)
          finished;
        match v.next_batch () with
        | None ->
            cur := None;
            None
        | Some b ->
            cur := Some (b, Batch.live_indices b, ref 0);
            next ())
  in
  { Iterator.schema = v.schema; next }

let to_rows (v : t) =
  let rec go acc =
    match v.next_batch () with
    | None -> List.concat (List.rev acc)
    | Some b -> go (Batch.to_rows b :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Scan: the heap's column image                                       *)
(* ------------------------------------------------------------------ *)

(* A chunk of the image as a batch that carries the stored rows and the
   chunk's pending pages. *)
let chunk_batch schema (c : Heap_file.chunk) =
  {
    Batch.schema;
    len = c.len;
    cols = c.cols;
    sel = None;
    rows = Some c.rows;
    pages = c.pages;
  }

let scan ?(eager = false) (heap : Heap_file.t) : t =
  let schema = Heap_file.schema heap in
  let next_chunk = Heap_file.scan_chunks heap in
  let next_batch () =
    match next_chunk () with
    | None -> None
    | Some c ->
        if eager then Heap_file.request_all c.pages;
        Some (chunk_batch schema c)
  in
  { schema; next_batch }

let with_schema (v : t) schema =
  {
    schema;
    next_batch =
      (fun () -> Option.map (fun b -> Batch.with_schema b schema) (v.next_batch ()));
  }

(* ------------------------------------------------------------------ *)
(* Predicates: selection-vector compaction                             *)
(* ------------------------------------------------------------------ *)

type sel_filter = Batch.t -> int array -> int -> int

(* Branch-free compaction step: always store the candidate index, advance
   the write cursor by [keep] (0 or 1). *)
let[@inline] store sel k i keep =
  sel.(!k) <- i;
  k := !k + keep

(* 1 when row [i] is not NULL: folded into [keep] arithmetically, so no
   kernel branches on the data. *)
let[@inline] present (nulls : bool array) i = 1 - Bool.to_int nulls.(i)

let flip_cmp = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | Eq_null -> Eq_null

(* Specialized loops over unboxed columns (a [Dates] column runs the int
   loops on its day keys).  For strict comparisons a NULL operand yields
   Unknown (row dropped) — the null check folds into [keep].
   [Eq_null] against a non-NULL literal behaves like [Eq] here (the
   NULL-literal case takes the generic path); between two columns it also
   keeps the rows where both are NULL.  Float comparisons go through
   [Float.compare] so they agree exactly with [Value.compare]'s total
   order. *)
let int_lit_loop op (data : int array) (nulls : bool array) x sel n =
  let k = ref 0 in
  (match op with
  | Eq | Eq_null ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i (present nulls i land Bool.to_int (data.(i) = x))
      done
  | Ne ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i (present nulls i land Bool.to_int (data.(i) <> x))
      done
  | Lt ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i (present nulls i land Bool.to_int (data.(i) < x))
      done
  | Le ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i (present nulls i land Bool.to_int (data.(i) <= x))
      done
  | Gt ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i (present nulls i land Bool.to_int (data.(i) > x))
      done
  | Ge ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i (present nulls i land Bool.to_int (data.(i) >= x))
      done);
  !k

let float_lit_loop op (data : float array) (nulls : bool array) x sel n =
  let k = ref 0 in
  (match op with
  | Eq | Eq_null ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present nulls i land Bool.to_int (Float.compare data.(i) x = 0))
      done
  | Ne ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present nulls i land Bool.to_int (Float.compare data.(i) x <> 0))
      done
  | Lt ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present nulls i land Bool.to_int (Float.compare data.(i) x < 0))
      done
  | Le ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present nulls i land Bool.to_int (Float.compare data.(i) x <= 0))
      done
  | Gt ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present nulls i land Bool.to_int (Float.compare data.(i) x > 0))
      done
  | Ge ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present nulls i land Bool.to_int (Float.compare data.(i) x >= 0))
      done);
  !k

let int_col_loop op (da : int array) (na : bool array) (db : int array)
    (nb : bool array) sel n =
  let k = ref 0 in
  (match op with
  | Eq ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present na i land present nb i land Bool.to_int (da.(i) = db.(i)))
      done
  | Eq_null ->
      (* NULL <=> NULL holds, NULL <=> x does not *)
      for si = 0 to n - 1 do
        let i = sel.(si) in
        let both_null = Bool.to_int na.(i) land Bool.to_int nb.(i)
        and equal =
          present na i land present nb i land Bool.to_int (da.(i) = db.(i))
        in
        store sel k i (both_null lor equal)
      done
  | Ne ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present na i land present nb i land Bool.to_int (da.(i) <> db.(i)))
      done
  | Lt ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present na i land present nb i land Bool.to_int (da.(i) < db.(i)))
      done
  | Le ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present na i land present nb i land Bool.to_int (da.(i) <= db.(i)))
      done
  | Gt ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present na i land present nb i land Bool.to_int (da.(i) > db.(i)))
      done
  | Ge ->
      for si = 0 to n - 1 do
        let i = sel.(si) in
        store sel k i
          (present na i land present nb i land Bool.to_int (da.(i) >= db.(i)))
      done);
  !k

(* Boxed fallback: still one tight loop per batch, no per-row closures or
   truth-list allocation. *)
let generic_lit_loop op b ci (v : Value.t) sel n =
  let k = ref 0 in
  for si = 0 to n - 1 do
    let i = sel.(si) in
    store sel k i
      (Bool.to_int
         (Eval.cmp_values op (Batch.value b ~col:ci ~row:i) v = Truth.True))
  done;
  !k

let generic_col_loop op b ca cb sel n =
  let k = ref 0 in
  for si = 0 to n - 1 do
    let i = sel.(si) in
    store sel k i
      (Bool.to_int
         (Eval.cmp_values op
            (Batch.value b ~col:ca ~row:i)
            (Batch.value b ~col:cb ~row:i)
         = Truth.True))
  done;
  !k

let col_lit ci op (v : Value.t) : sel_filter =
 fun b sel n ->
  match (b.Batch.cols.(ci), v) with
  | Batch.Ints { data; nulls }, Value.Int x -> int_lit_loop op data nulls x sel n
  | Batch.Floats { data; nulls }, Value.Float x -> float_lit_loop op data nulls x sel n
  | Batch.Dates { data; nulls }, Value.Date d ->
      int_lit_loop op data nulls (Value.date_key d) sel n
  | _ -> generic_lit_loop op b ci v sel n

let col_col ca op cb : sel_filter =
 fun b sel n ->
  match (b.Batch.cols.(ca), b.Batch.cols.(cb)) with
  | Batch.Ints { data = da; nulls = na }, Batch.Ints { data = db; nulls = nb }
  | Batch.Dates { data = da; nulls = na }, Batch.Dates { data = db; nulls = nb }
    ->
      int_col_loop op da na db nb sel n
  | _ -> generic_col_loop op b ca cb sel n

(* A comparison operand: a column of the batch, or a value read each time
   a batch is filtered — a literal, a parameter of the bindings a
   re-opened plan runs under, or a column of the row a nested-loop join
   has bound. *)
type operand = Column of int | Value of (unit -> Value.t)

let compile_comparison (a, op, b) : sel_filter =
  match (a, b) with
  | Column ca, Column cb -> col_col ca op cb
  | Column ci, Value v -> fun b sel n -> col_lit ci op (v ()) b sel n
  | Value v, Column ci ->
      let op = flip_cmp op in
      fun b sel n -> col_lit ci op (v ()) b sel n
  | Value u, Value v ->
      fun _ _ n -> if Eval.cmp_values op (u ()) (v ()) = Truth.True then n else 0

(* Mixed-mode conjunction: the first conjunct sees the dense selection,
   later conjuncts only the survivors. *)
let compile_conjunction comparisons : sel_filter =
  let fs = List.map compile_comparison comparisons in
  fun b sel n -> List.fold_left (fun n f -> if n = 0 then 0 else f b sel n) n fs

let filter ~(pred : sel_filter) (input : t) : t =
  let rec next_batch () =
    match input.next_batch () with
    | None -> None
    | Some b ->
        let sel = Batch.live_indices b in
        let n = pred b sel (Array.length sel) in
        if n = 0 then next_batch ()
        else Some (Batch.with_sel b (Array.sub sel 0 n))
  in
  { schema = input.schema; next_batch }

let project ~schema ~positions (input : t) : t =
  {
    schema;
    next_batch =
      (fun () ->
        Option.map (fun b -> Batch.project b ~schema ~positions) (input.next_batch ()));
  }

(* ------------------------------------------------------------------ *)
(* Hash keys: int-class normalization                                  *)
(* ------------------------------------------------------------------ *)

(* Unboxed hash tables need a key routing that is a function of the
   [Value.compare]-equality *class*, not of the representation: [Int 5] and
   [Float 5.0] compare equal, so both must normalize to the machine int 5.
   The normalization is only defined where Int/Float equality is exact —
   inside ±2^53 — and everything else (NULL, strings, dates, huge or
   fractional numbers) routes to the boxed [Row.Tbl] path, whose
   equality/hash are [Value.compare]-consistent by construction.  Routing
   is exclusive and identical on build and probe, so the split into two
   tables never loses a match. *)
let exact_bound = 9007199254740992 (* 2^53 *)

let int_key : Value.t -> int option = function
  | Value.Int x -> if x > -exact_bound && x < exact_bound then Some x else None
  | Value.Float f ->
      if
        Float.is_integer f
        && f > -9.007199254740992e15
        && f < 9.007199254740992e15
      then Some (int_of_float f)
      else None
  | _ -> None

(* Int-class key of column [c] at physical row [i], without boxing when the
   column is stored unboxed.  A date is never int-class, though a [Dates]
   column holds ints: its key takes the boxed route, where it can never
   meet an [Int] key. *)
let col_int_key (c : Batch.col) i : int option =
  match c with
  | Batch.Ints { data; nulls } ->
      if nulls.(i) then None
      else
        let x = data.(i) in
        if x > -exact_bound && x < exact_bound then Some x else None
  | Batch.Floats { data; nulls } ->
      if nulls.(i) then None else int_key (Value.Float data.(i))
  | Batch.Dates _ -> None
  | Batch.Values vs -> int_key vs.(i)

(* ------------------------------------------------------------------ *)
(* Hash distinct                                                       *)
(* ------------------------------------------------------------------ *)

let hash_distinct (input : t) : t =
  let arity = Schema.arity input.schema in
  let ints : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let seen_null = ref false in
  let gen : unit Row.Tbl.t = Row.Tbl.create 64 in
  let fresh_int k = if Hashtbl.mem ints k then false else (Hashtbl.add ints k (); true) in
  let fresh_gen r = if Row.Tbl.mem gen r then false else (Row.Tbl.add gen r (); true) in
  let keep1 b i =
    (* single-column dedup: route by value class *)
    let v = Batch.value b ~col:0 ~row:i in
    if Value.is_null v then
      if !seen_null then false
      else begin
        seen_null := true;
        true
      end
    else
      match int_key v with Some k -> fresh_int k | None -> fresh_gen [| v |]
  in
  let rec next_batch () =
    match input.next_batch () with
    | None -> None
    | Some b ->
        let sel = Batch.live_indices b in
        let n = Array.length sel in
        let k = ref 0 in
        (if arity = 1 then
           match b.Batch.cols.(0) with
           | Batch.Ints { data; nulls } ->
               (* unboxed fast path: every value is Int-class or NULL *)
               for si = 0 to n - 1 do
                 let i = sel.(si) in
                 let fresh =
                   if nulls.(i) then
                     if !seen_null then false
                     else begin
                       seen_null := true;
                       true
                     end
                   else
                     let x = data.(i) in
                     if x > -exact_bound && x < exact_bound then fresh_int x
                     else fresh_gen [| Value.Int x |]
                 in
                 store sel k i (Bool.to_int fresh)
               done
           | _ ->
               for si = 0 to n - 1 do
                 let i = sel.(si) in
                 store sel k i (Bool.to_int (keep1 b i))
               done
         else
           for si = 0 to n - 1 do
             let i = sel.(si) in
             store sel k i (Bool.to_int (fresh_gen (Batch.row b i)))
           done);
        if !k = 0 then next_batch ()
        else Some (Batch.with_sel b (Array.sub sel 0 !k))
  in
  { schema = input.schema; next_batch }

(* ------------------------------------------------------------------ *)
(* Hash join                                                           *)
(* ------------------------------------------------------------------ *)

(* Which bucket family a key row belongs to.  [K1]/[K2] are the unboxed
   one- and two-int-class-key fast paths; [Kgen] is the boxed catch-all
   (including null-safe NULLs); [Kdrop] marks keys with a NULL in a strict
   column, which can never match. *)
type key_route = K1 of int | K2 of int * int | Kgen of Row.t | Kdrop

let route_key (b : Batch.t) (key : int array) (strict : bool array) i : key_route =
  let nk = Array.length key in
  let rec strict_null j =
    j < nk
    && ((strict.(j) && Relalg.Column.is_null b.Batch.cols.(key.(j)) i)
       || strict_null (j + 1))
  in
  if strict_null 0 then Kdrop
  else if nk = 1 then
    match col_int_key b.Batch.cols.(key.(0)) i with
    | Some k -> K1 k
    | None -> Kgen [| Batch.value b ~col:key.(0) ~row:i |]
  else if nk = 2 then
    match
      (col_int_key b.Batch.cols.(key.(0)) i, col_int_key b.Batch.cols.(key.(1)) i)
    with
    | Some k1, Some k2 -> K2 (k1, k2)
    | _ ->
        Kgen
          [| Batch.value b ~col:key.(0) ~row:i; Batch.value b ~col:key.(1) ~row:i |]
  else Kgen (Array.init nk (fun j -> Batch.value b ~col:key.(j) ~row:i))

(* Growable int buffer for the joins' match lists. *)
type ivec = { mutable buf : int array; mutable n : int }

let ivec_make ?(cap = 1024) () = { buf = Array.make cap 0; n = 0 }

let ivec_reserve v extra =
  let need = v.n + extra in
  if need > Array.length v.buf then begin
    let cap = ref (2 * Array.length v.buf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let a = Array.make !cap 0 in
    Array.blit v.buf 0 a 0 v.n;
    v.buf <- a
  end

let[@inline] ivec_push v x =
  ivec_reserve v 1;
  v.buf.(v.n) <- x;
  v.n <- v.n + 1

(* Build-side rows are addressed by a packed reference — batch id in the
   high bits, physical row index in the low [ref_bits] — into the retained
   right-hand batches.  The probe never materializes a [Row.t] on the match
   path: it accumulates (left index, right ref) pairs and then gathers the
   output {e column-wise} straight from the source columns, staying unboxed
   whenever the source column is unboxed.  A negative ref marks the outer
   join's NULL padding. *)
let ref_bits = 31
let ref_mask = (1 lsl ref_bits) - 1

(* Flat chained hash table for int-class join keys: open-addressing slots
   (linear probing) hold the key and the head of that key's chain; chains
   thread through a [nexts] array parallel to the pushed refs.  Insert and
   lookup allocate nothing per row — the stdlib [Hashtbl] costs (key
   boxing, bucket conses, option allocs) are what this replaces.  Two-key
   joins store both components; single-key joins use [k2 = 0]. *)
type flat = {
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable ks1 : int array;
  mutable ks2 : int array;
  mutable heads : int array; (* head position in refs, -1 = empty slot *)
  mutable used : int; (* occupied slots *)
  frefs : ivec; (* packed build refs, in insertion order *)
  fnexts : ivec; (* chain links: previous head at insertion time *)
}

let flat_make () =
  {
    mask = 255;
    ks1 = Array.make 256 0;
    ks2 = Array.make 256 0;
    heads = Array.make 256 (-1);
    used = 0;
    frefs = ivec_make ();
    fnexts = ivec_make ();
  }

let[@inline] flat_hash k1 k2 =
  let h = (k1 * 0x9E3779B1) lxor (k2 * 0x85EBCA77) in
  h lxor (h lsr 16)

(* Find the slot for (k1,k2): either its occupied slot or the empty slot
   where it belongs. *)
let rec flat_slot t k1 k2 s =
  if t.heads.(s) < 0 || (t.ks1.(s) = k1 && t.ks2.(s) = k2) then s
  else flat_slot t k1 k2 ((s + 1) land t.mask)

let flat_grow t =
  let old_k1 = t.ks1 and old_k2 = t.ks2 and old_heads = t.heads in
  let cap = 2 * (t.mask + 1) in
  t.mask <- cap - 1;
  t.ks1 <- Array.make cap 0;
  t.ks2 <- Array.make cap 0;
  t.heads <- Array.make cap (-1);
  Array.iteri
    (fun s head ->
      if head >= 0 then begin
        let k1 = old_k1.(s) and k2 = old_k2.(s) in
        let s' = flat_slot t k1 k2 (flat_hash k1 k2 land t.mask) in
        t.ks1.(s') <- k1;
        t.ks2.(s') <- k2;
        t.heads.(s') <- head
      end)
    old_heads

let flat_add t k1 k2 r =
  if 4 * t.used > 3 * (t.mask + 1) then flat_grow t;
  let s = flat_slot t k1 k2 (flat_hash k1 k2 land t.mask) in
  let pos = t.frefs.n in
  ivec_push t.frefs r;
  if t.heads.(s) < 0 then begin
    t.ks1.(s) <- k1;
    t.ks2.(s) <- k2;
    t.used <- t.used + 1;
    ivec_push t.fnexts (-1)
  end
  else ivec_push t.fnexts t.heads.(s);
  t.heads.(s) <- pos

(* Head of the chain for (k1,k2), or -1. *)
let[@inline] flat_find t k1 k2 =
  let s = flat_slot t k1 k2 (flat_hash k1 k2 land t.mask) in
  t.heads.(s)

(* Columnar gathers of one ≤max_rows output chunk, positions [start,
   start + len) of an index buffer.  [gather] reads physical indices into
   one column.  [gather_refs] reads column [cj] of the retained sources
   ([srcs.(id)] is source [id]'s columns) at packed refs, NULL for a
   negative ref: an optimistic unboxed gather guided by the column's
   schema type, which a boxed source column (a demoted one) aborts to the
   exact boxed path. *)
let gather_ints (data : int array) nulls (idx : int array) start len =
  let d = Array.make len 0 and nu = Array.make len false in
  for k = 0 to len - 1 do
    let i = idx.(start + k) in
    d.(k) <- data.(i);
    nu.(k) <- nulls.(i)
  done;
  (d, nu)

let gather (c : Batch.col) (idx : int array) start len : Batch.col =
  match c with
  | Batch.Ints { data; nulls } ->
      let data, nulls = gather_ints data nulls idx start len in
      Batch.Ints { data; nulls }
  | Batch.Dates { data; nulls } ->
      let data, nulls = gather_ints data nulls idx start len in
      Batch.Dates { data; nulls }
  | Batch.Floats { data; nulls } ->
      let d = Array.make len 0. and nu = Array.make len false in
      for k = 0 to len - 1 do
        let i = idx.(start + k) in
        d.(k) <- data.(i);
        nu.(k) <- nulls.(i)
      done;
      Batch.Floats { data = d; nulls = nu }
  | Batch.Values vs -> Batch.Values (Array.init len (fun k -> vs.(idx.(start + k))))

let gather_refs (ty : Value.ty) (srcs : Batch.col array array) cj
    (refs : int array) start len : Batch.col =
  let boxed () =
    Batch.Values
      (Array.init len (fun k ->
           let r = refs.(start + k) in
           if r < 0 then Value.Null
           else Relalg.Column.value srcs.(r lsr ref_bits).(cj) (r land ref_mask)))
  in
  match ty with
  | Value.Tint | Value.Tdate -> (
      let d = Array.make len 0 and nu = Array.make len false in
      try
        for k = 0 to len - 1 do
          let r = refs.(start + k) in
          if r < 0 then nu.(k) <- true
          else
            match (srcs.(r lsr ref_bits).(cj), ty) with
            | Batch.Ints { data; nulls }, Value.Tint
            | Batch.Dates { data; nulls }, Value.Tdate ->
                let i = r land ref_mask in
                d.(k) <- data.(i);
                nu.(k) <- nulls.(i)
            | _ -> raise_notrace Exit
        done;
        if ty = Value.Tint then Batch.Ints { data = d; nulls = nu }
        else Batch.Dates { data = d; nulls = nu }
      with Exit -> boxed ())
  | Value.Tfloat -> (
      let d = Array.make len 0. and nu = Array.make len false in
      try
        for k = 0 to len - 1 do
          let r = refs.(start + k) in
          if r < 0 then nu.(k) <- true
          else
            match srcs.(r lsr ref_bits).(cj) with
            | Batch.Floats { data; nulls } ->
                let i = r land ref_mask in
                d.(k) <- data.(i);
                nu.(k) <- nulls.(i)
            | _ -> raise_notrace Exit
        done;
        Batch.Floats { data = d; nulls = nu }
      with Exit -> boxed ())
  | Value.Tstr -> boxed ()

let hash_join ?(outer_join = false) ?(null_safe : bool list option)
    ?(residual : (Row.t -> Row.t -> Truth.t) option)
    ?(project : int list option) ~left_key ~right_key (left : t) (right : t) :
    t =
  let joined_schema = Schema.append left.schema right.schema in
  let l_arity = Schema.arity left.schema in
  let r_arity = Schema.arity right.schema in
  (* Late materialization: with [project] the join only ever gathers the
     surviving output columns — dropped columns are never copied. *)
  let out_positions =
    match project with
    | None -> Array.init (l_arity + r_arity) Fun.id
    | Some ps -> Array.of_list ps
  in
  let schema =
    match project with
    | None -> joined_schema
    | Some ps -> Schema.project joined_schema ps
  in
  let joined_tys =
    Array.of_list
      (List.map
         (fun (c : Schema.column) -> c.Schema.ty)
         (Schema.columns joined_schema))
  in
  let lk = Array.of_list left_key and rk = Array.of_list right_key in
  let nk = Array.length lk in
  let strict =
    match null_safe with
    | None -> Array.make nk true
    | Some flags -> Array.of_list (List.map not flags)
  in
  (* Build: int-class keys chain through the flat table; everything boxed
     (strings, dates, null-safe NULLs, huge numbers) goes to per-key ref
     lists under [Value.compare] semantics.  Both store refs newest-first;
     probes emit in build order. *)
  let ft = flat_make () in
  let tg : int list ref Row.Tbl.t = Row.Tbl.create 64 in
  let acc = ref [] and nbatches = ref 0 in
  let batches = ref [||] and batch_cols = ref [||] in
  let add_gen key r =
    match Row.Tbl.find_opt tg key with
    | Some cell -> cell := r :: !cell
    | None -> Row.Tbl.add tg key (ref [ r ])
  in
  let build_batch b =
    let bid = !nbatches lsl ref_bits in
    (* The single-strict-int-key build dispatches on the column
       representation once per batch, so the per-row loop carries no
       routing allocation at all. *)
    (match (nk, b.Batch.cols.(rk.(0))) with
    | 1, Batch.Ints { data; nulls } when strict.(0) ->
        Batch.iter_live b (fun i ->
            if not nulls.(i) then
              let x = data.(i) in
              if x > -exact_bound && x < exact_bound then
                flat_add ft x 0 (bid lor i)
              else add_gen [| Value.Int x |] (bid lor i))
    | _ ->
        Batch.iter_live b (fun i ->
            let r = bid lor i in
            match route_key b rk strict i with
            | Kdrop -> ()
            | K1 k -> flat_add ft k 0 r
            | K2 (k1, k2) -> flat_add ft k1 k2 r
            | Kgen key -> add_gen key r));
    acc := b :: !acc;
    incr nbatches
  in
  let built = ref false in
  let build () =
    let rec go () =
      match right.next_batch () with
      | None -> ()
      | Some b ->
          build_batch b;
          go ()
    in
    go ();
    batches := Array.of_list (List.rev !acc);
    batch_cols := Array.map (fun (b : Batch.t) -> b.cols) !batches;
    acc := [];
    built := true
  in
  let right_row r = Batch.row !batches.(r lsr ref_bits) (r land ref_mask) in
  (* Probe one left batch into (left index, right ref) pair buffers. *)
  let out_l = ivec_make () and out_r = ivec_make () in
  let pad_left i =
    ivec_push out_l i;
    ivec_push out_r (-1)
  in
  (* Emit a flat-table chain (newest-first): reserve and fill backwards so
     output order is build order, as a nested-loop join's would be. *)
  let emit_chain lb i head =
    if head < 0 then begin
      if outer_join then pad_left i
    end
    else
      match residual with
      | None ->
          let m = ref 0 in
          let p = ref head in
          while !p >= 0 do
            incr m;
            p := ft.fnexts.buf.(!p)
          done;
          let m = !m in
          ivec_reserve out_l m;
          ivec_reserve out_r m;
          let k = ref (out_l.n + m - 1) in
          let p = ref head in
          while !p >= 0 do
            out_l.buf.(!k) <- i;
            out_r.buf.(!k) <- ft.frefs.buf.(!p);
            decr k;
            p := ft.fnexts.buf.(!p)
          done;
          out_l.n <- out_l.n + m;
          out_r.n <- out_r.n + m
      | Some f ->
          let refs = ref [] in
          let p = ref head in
          while !p >= 0 do
            refs := ft.frefs.buf.(!p) :: !refs;
            p := ft.fnexts.buf.(!p)
          done;
          let l = Batch.row lb i in
          let emitted = ref false in
          List.iter
            (fun r ->
              if Truth.to_bool (f l (right_row r)) then begin
                emitted := true;
                ivec_push out_l i;
                ivec_push out_r r
              end)
            !refs;
          if outer_join && not !emitted then pad_left i
  in
  (* Emit a boxed-path match list (newest-first, same order contract). *)
  let emit_matches lb i matches =
    match matches with
    | [] -> if outer_join then pad_left i
    | _ -> (
        match residual with
        | None ->
            let m = List.length matches in
            ivec_reserve out_l m;
            ivec_reserve out_r m;
            let k = ref (out_l.n + m - 1) in
            List.iter
              (fun r ->
                out_l.buf.(!k) <- i;
                out_r.buf.(!k) <- r;
                decr k)
              matches;
            out_l.n <- out_l.n + m;
            out_r.n <- out_r.n + m
        | Some f ->
            let l = Batch.row lb i in
            let emitted = ref false in
            List.iter
              (fun r ->
                if Truth.to_bool (f l (right_row r)) then begin
                  emitted := true;
                  ivec_push out_l i;
                  ivec_push out_r r
                end)
              (List.rev matches);
            if outer_join && not !emitted then pad_left i)
  in
  let gen_matches key =
    match Row.Tbl.find_opt tg key with Some c -> !c | None -> []
  in
  let probe_batch lb =
    out_l.n <- 0;
    out_r.n <- 0;
    match (nk, lb.Batch.cols.(lk.(0))) with
    | 1, Batch.Ints { data; nulls } when strict.(0) ->
        (* mirror of the build's unboxed fast path *)
        Batch.iter_live lb (fun i ->
            if nulls.(i) then begin
              if outer_join then pad_left i
            end
            else
              let x = data.(i) in
              if x > -exact_bound && x < exact_bound then
                emit_chain lb i (flat_find ft x 0)
              else emit_matches lb i (gen_matches [| Value.Int x |]))
    | _ ->
        Batch.iter_live lb (fun i ->
            match route_key lb lk strict i with
            | Kdrop -> if outer_join then pad_left i
            | K1 k -> emit_chain lb i (flat_find ft k 0)
            | K2 (k1, k2) -> emit_chain lb i (flat_find ft k1 k2)
            | Kgen key -> emit_matches lb i (gen_matches key))
  in
  let gather_right cj start len =
    gather_refs joined_tys.(l_arity + cj) !batch_cols cj out_r.buf start len
  in
  let pending : Batch.t Queue.t = Queue.create () in
  let emit lb =
    let total = out_l.n in
    let start = ref 0 in
    while !start < total do
      let len = min Batch.max_rows (total - !start) in
      let cols =
        Array.map
          (fun p ->
            if p < l_arity then gather lb.Batch.cols.(p) out_l.buf !start len
            else gather_right (p - l_arity) !start len)
          out_positions
      in
      Queue.add (Batch.of_cols schema len cols) pending;
      start := !start + len
    done
  in
  let rec next_batch () =
    if not !built then build ();
    if not (Queue.is_empty pending) then Some (Queue.take pending)
    else
      match left.next_batch () with
      | None -> None
      | Some lb ->
          probe_batch lb;
          if out_l.n > 0 then emit lb;
          next_batch ()
  in
  { schema; next_batch }

(* ------------------------------------------------------------------ *)
(* Nested-loop join                                                    *)
(* ------------------------------------------------------------------ *)

(* Under each live left row, bound in [frame], the stored inner [right] is
   rescanned chunk by chunk ([Heap_file.scan_chunks]: the pages the tuple
   operator's row-by-row rescan requests, in the same order) and each
   chunk is narrowed by [pred], whose left operands read the frame.  The
   matches are kept as (left index, packed inner ref) pairs into the
   chunks they came from and gathered column-wise into [Batch.max_rows]-row
   output batches, so allocation follows the output, not the rows
   scanned.  A left row's rescan runs to its end before the next batch is
   handed out; what is left over when a left batch ends goes out as one
   shorter batch. *)
let nested_loop_join ?(outer_join = false) ~schema ~(frame : Row.t ref)
    ~(pred : sel_filter) (left : t) (right : Heap_file.t) : t =
  let l_arity = Schema.arity left.schema in
  let r_schema = Heap_file.schema right in
  let r_arity = Schema.arity r_schema in
  let tys =
    Array.of_list
      (List.map (fun (c : Schema.column) -> c.Schema.ty) (Schema.columns schema))
  in
  let sel = Array.make Batch.max_rows 0 in
  (* sized for one batch, which keeps them off the major heap; they grow
     only when a chunk's matches overflow a batch *)
  let out_l = ivec_make ~cap:Batch.max_rows ()
  and out_r = ivec_make ~cap:Batch.max_rows () in
  (* the inner chunks the pending refs point into *)
  let chunks = ref [||] and nchunks = ref 0 in
  let retain cols =
    if !nchunks = Array.length !chunks then begin
      let a = Array.make (max 16 (2 * !nchunks)) [||] in
      Array.blit !chunks 0 a 0 !nchunks;
      chunks := a
    end;
    !chunks.(!nchunks) <- cols;
    incr nchunks;
    !nchunks - 1
  in
  let pending : Batch.t Queue.t = Queue.create () in
  (* Gather the first [len] pending pairs into a batch, keep the rest. *)
  let emit lb len =
    let cs = !chunks in
    let cols =
      Array.init (l_arity + r_arity) (fun p ->
          if p < l_arity then gather lb.Batch.cols.(p) out_l.buf 0 len
          else
            let cj = p - l_arity in
            gather_refs tys.(p) cs cj out_r.buf 0 len)
    in
    Queue.add (Batch.of_cols schema len cols) pending;
    let rest = out_l.n - len in
    Array.blit out_l.buf len out_l.buf 0 rest;
    Array.blit out_r.buf len out_r.buf 0 rest;
    out_l.n <- rest;
    out_r.n <- rest;
    if rest = 0 then nchunks := 0
  in
  let join_row lb i =
    frame := Batch.row lb i;
    let next_chunk = Heap_file.scan_chunks right in
    let matched = ref false in
    let rec rescan () =
      match next_chunk () with
      | None -> ()
      | Some chunk ->
          Heap_file.request_all chunk.pages;
          let len = chunk.len in
          for k = 0 to len - 1 do
            sel.(k) <- k
          done;
          let n = pred (chunk_batch r_schema chunk) sel len in
          if n > 0 then begin
            matched := true;
            let c = retain chunk.cols lsl ref_bits in
            ivec_reserve out_l n;
            ivec_reserve out_r n;
            for k = 0 to n - 1 do
              out_l.buf.(out_l.n + k) <- i;
              out_r.buf.(out_r.n + k) <- c lor sel.(k)
            done;
            out_l.n <- out_l.n + n;
            out_r.n <- out_r.n + n;
            while out_l.n >= Batch.max_rows do
              emit lb Batch.max_rows
            done
          end;
          rescan ()
    in
    rescan ();
    if outer_join && not !matched then begin
      ivec_push out_l i;
      ivec_push out_r (-1)
    end
  in
  let cur = ref None (* (left batch, live indices, cursor) *) in
  let rec next_batch () =
    if not (Queue.is_empty pending) then Some (Queue.take pending)
    else
      match !cur with
      | Some (lb, idxs, pos) when !pos < Array.length idxs ->
          let i = idxs.(!pos) in
          Heap_file.request_through lb.Batch.pages i;
          join_row lb i;
          incr pos;
          next_batch ()
      | finished -> (
          (* as a row-at-a-time join asks for its next left row as soon
             as a rescan ends, the next left batch is pulled before the
             last one's leftover matches go out *)
          Option.iter
            (fun (lb, _, _) -> Heap_file.request_all lb.Batch.pages)
            finished;
          let next = left.next_batch () in
          (match finished with
          | Some (lb, _, _) when out_l.n > 0 -> emit lb out_l.n
          | _ -> ());
          cur := Option.map (fun lb -> (lb, Batch.live_indices lb, ref 0)) next;
          match next with
          | None when Queue.is_empty pending -> None
          | _ -> next_batch ())
  in
  { schema; next_batch }

(* ------------------------------------------------------------------ *)
(* Hash aggregation                                                    *)
(* ------------------------------------------------------------------ *)

(* Update an accumulator straight from a column, avoiding value boxing on
   the unboxed-int paths (the common COUNT/SUM/MAX cases) and for COUNT of
   a date.  Anything off the fast path delegates to [Eval.update_state],
   so semantics stay shared. *)
let update_from_col (st : Eval.agg_state) (c : Batch.col) i =
  match c with
  | Batch.Ints { data; nulls } -> (
      if nulls.(i) then (
        match st with
        | Eval.S_count k when k.star -> k.n <- k.n + 1
        | _ -> ())
      else
        let x = data.(i) in
        match st with
        | Eval.S_count k -> k.n <- k.n + 1
        | Eval.S_sum s -> (
            match s.v with
            | Value.Int cur -> s.v <- Value.Int (cur + x)
            | Value.Null -> s.v <- Value.Int x
            | _ -> Eval.update_state st (Value.Int x))
        | Eval.S_max m -> (
            match m.v with
            | Value.Int cur -> if x > cur then m.v <- Value.Int x
            | Value.Null -> m.v <- Value.Int x
            | _ -> Eval.update_state st (Value.Int x))
        | Eval.S_min m -> (
            match m.v with
            | Value.Int cur -> if x < cur then m.v <- Value.Int x
            | Value.Null -> m.v <- Value.Int x
            | _ -> Eval.update_state st (Value.Int x))
        | Eval.S_avg a ->
            a.total <- a.total +. float_of_int x;
            a.n <- a.n + 1)
  | Batch.Floats { data; nulls } ->
      if nulls.(i) then (
        match st with
        | Eval.S_count k when k.star -> k.n <- k.n + 1
        | _ -> ())
      else Eval.update_state st (Value.Float data.(i))
  | Batch.Dates { nulls; _ } -> (
      match st with
      | Eval.S_count k -> if k.star || not nulls.(i) then k.n <- k.n + 1
      | _ -> Eval.update_state st (Relalg.Column.value c i))
  | Batch.Values vs -> Eval.update_state st vs.(i)

(* The tables a global aggregate never touches, shared so that one
   opened per outer row allocates none. *)
let no_int_groups : (int, Eval.agg_state array) Hashtbl.t = Hashtbl.create 1
let no_groups : Eval.agg_state array Row.Tbl.t = Row.Tbl.create 1

let hash_group_agg ~group_key ~(aggs : Iterator.agg_spec list) ~schema
    (input : t) : t =
  let gk = Array.of_list group_key in
  let nk = Array.length gk in
  let agg_arr = Array.of_list aggs in
  let fresh () = Array.map (fun (s : Iterator.agg_spec) -> Eval.fresh_state s.fn) agg_arr in
  (* Group routing mirrors [hash_join]'s: int-class keys through an unboxed
     table, everything else (including the NULL group) through [Row.Tbl]. *)
  let t1 : (int, Eval.agg_state array) Hashtbl.t =
    if nk = 1 then Hashtbl.create 256 else no_int_groups
  in
  let tg : Eval.agg_state array Row.Tbl.t =
    if nk = 0 then no_groups else Row.Tbl.create 64
  in
  let order = ref [] (* (first-occurrence key row, states), reversed *) in
  let global = fresh () in
  let states_for b i =
    if nk = 0 then global
    else if nk = 1 then
      match col_int_key b.Batch.cols.(gk.(0)) i with
      | Some k -> (
          match Hashtbl.find_opt t1 k with
          | Some st -> st
          | None ->
              let st = fresh () in
              Hashtbl.add t1 k st;
              order := ([| Batch.value b ~col:gk.(0) ~row:i |], st) :: !order;
              st)
      | None -> (
          let key = [| Batch.value b ~col:gk.(0) ~row:i |] in
          match Row.Tbl.find_opt tg key with
          | Some st -> st
          | None ->
              let st = fresh () in
              Row.Tbl.add tg key st;
              order := (key, st) :: !order;
              st)
    else
      let key = Array.init nk (fun j -> Batch.value b ~col:gk.(j) ~row:i) in
      match Row.Tbl.find_opt tg key with
      | Some st -> st
      | None ->
          let st = fresh () in
          Row.Tbl.add tg key st;
          order := (key, st) :: !order;
          st
  in
  let update_row b i states =
    Array.iteri
      (fun j (spec : Iterator.agg_spec) ->
        match spec.arg with
        | None -> (
            match states.(j) with
            | Eval.S_count k -> k.n <- k.n + 1
            | st -> Eval.update_state st (Value.Int 1))
        | Some c -> update_from_col states.(j) b.Batch.cols.(c) i)
      agg_arr
  in
  let rec drain () =
    match input.next_batch () with
    | None -> ()
    | Some b ->
        Batch.iter_live b (fun i -> update_row b i (states_for b i));
        drain ()
  in
  let done_ = ref false in
  let next_batch () =
    if !done_ then None
    else begin
      done_ := true;
      drain ();
      let finish (key, states) = Row.append key (Array.map Eval.finish_state states) in
      let rows =
        if nk = 0 then [ finish ([||], global) ]
        else List.rev_map finish !order
      in
      match rows with
      | [] -> None
      | rows -> Some (Batch.of_rows schema (Array.of_list rows))
    end
  in
  { schema; next_batch }

(* Volcano-style physical operators.

   Every operator is a pull iterator carrying its output schema.  Operators
   that touch stored relations do so through the pager, so measured page I/O
   reflects plan structure.  Join methods are the two the paper discusses:
   tuple nested loops (re-scanning the stored inner per outer tuple — cheap
   when the inner fits in the buffer pool, quadratic in I/O when it does
   not) and sort-merge (on equality keys, with many-to-many group handling).
   Both come in inner and left-outer flavours; the left-outer variants are
   the operation §5.2 requires for the COUNT bug fix. *)

module Value = Relalg.Value
module Truth = Relalg.Truth
module Schema = Relalg.Schema
module Row = Relalg.Row
module Relation = Relalg.Relation
module Heap_file = Storage.Heap_file
module Pager = Storage.Pager

type t = { schema : Schema.t; next : unit -> Row.t option }

let schema t = t.schema

let to_rows t =
  let rec go acc = match t.next () with
    | Some r -> go (r :: acc)
    | None -> List.rev acc
  in
  go []

let to_relation t = Relation.make t.schema (to_rows t)

let of_rows schema rows =
  let remaining = ref rows in
  let next () =
    match !remaining with
    | [] -> None
    | r :: rest ->
        remaining := rest;
        Some r
  in
  { schema; next }

let of_relation rel = of_rows (Relation.schema rel) (Relation.rows rel)

let scan (heap : Heap_file.t) : t =
  { schema = Heap_file.schema heap; next = Heap_file.scan heap }

let filter ~(pred : Row.t -> Truth.t) (input : t) : t =
  let rec next () =
    match input.next () with
    | None -> None
    | Some r as kept -> (
        match pred r with
        | Truth.True -> kept
        | Truth.False | Truth.Unknown -> next ())
  in
  { schema = input.schema; next }

let project ~idxs (input : t) : t =
  (* Positions are compiled to an array once; the per-row work is one array
     map, not a list traversal. *)
  let positions = Array.of_list idxs in
  {
    schema = Schema.project input.schema idxs;
    next =
      (fun () ->
        match input.next () with
        | None -> None
        | Some r -> Some (Row.project_positions r positions));
  }

(* Evaluate select-item-shaped scalar expressions; used for constant columns
   if ever needed.  (Projection by positions is the common path.) *)

let materialize pager (input : t) : Heap_file.t =
  let heap = Heap_file.create pager input.schema in
  let rec drain () =
    match input.next () with
    | Some r ->
        Heap_file.append heap r;
        drain ()
    | None -> Heap_file.flush heap
  in
  drain ();
  heap

(* External sort: materializes the input, sorts it and returns the sorted
   run, a fresh heap the caller scans and deletes. *)
let sort_run pager ?(dedup = Storage.External_sort.Keep_duplicates) ~key
    (input : t) : Heap_file.t =
  let heap = materialize pager input in
  let sorted = Storage.External_sort.sort pager ~dedup ~key heap in
  Heap_file.delete heap;
  sorted

(* ------------------------------------------------------------------ *)
(* Nested-loop joins                                                   *)
(* ------------------------------------------------------------------ *)

(* Tuple nested loops: the stored inner relation is re-scanned once per
   outer row (buffer pool permitting). *)
let nested_loop_join ?(outer_join = false)
    ~(theta : Row.t -> Row.t -> Truth.t) (left : t) (right : Heap_file.t) : t =
  let right_schema = Heap_file.schema right in
  let pad = Row.nulls (Schema.arity right_schema) in
  let schema = Schema.append left.schema right_schema in
  let current_left = ref None in
  let right_scan = ref (fun () -> None) in
  let matched = ref false in
  let rec next () =
    match !current_left with
    | None -> (
        match left.next () with
        | None -> None
        | Some l ->
            current_left := Some l;
            right_scan := Heap_file.scan right;
            matched := false;
            next ())
    | Some l -> (
        match !right_scan () with
        | Some r -> (
            match theta l r with
            | Truth.True ->
                matched := true;
                Some (Row.append l r)
            | Truth.False | Truth.Unknown -> next ())
        | None ->
            let emit_pad = outer_join && not !matched in
            current_left := None;
            if emit_pad then Some (Row.append l pad) else next ())
  in
  { schema; next }

(* Index nested loops: [probe] fetches the right rows matching one left
   row (a B-tree lookup on the join column, fetched in full before the
   first is returned) — the access path §5.2 warns can tempt a system into
   joining before restricting. *)
let index_nested_loop_join ?(outer_join = false)
    ?(residual : (Row.t -> Row.t -> Truth.t) option)
    ~(probe : Row.t -> Row.t list) ~(right_schema : Schema.t) (left : t) : t =
  let pad = Row.nulls (Schema.arity right_schema) in
  let schema = Schema.append left.schema right_schema in
  let residual_ok l r =
    match residual with None -> true | Some f -> Truth.to_bool (f l r)
  in
  let pending = ref [] in
  let rec next () =
    match !pending with
    | r :: rest ->
        pending := rest;
        Some r
    | [] -> (
        match left.next () with
        | None -> None
        | Some l -> (
            let matches =
              List.filter_map
                (fun r ->
                  if residual_ok l r then Some (Row.append l r) else None)
                (probe l)
            in
            match matches with
            | [] -> if outer_join then Some (Row.append l pad) else next ()
            | first :: rest ->
                pending := rest;
                Some first))
  in
  { schema; next }

(* ------------------------------------------------------------------ *)
(* Sort-merge join (equality keys)                                     *)
(* ------------------------------------------------------------------ *)

(* Inputs must already be sorted on their key columns.  Handles
   many-to-many matches by buffering the current right-side key group in
   memory.  [residual] filters joined rows (non-key predicates); with
   [outer_join], a left row whose group yields no residual-qualifying match
   is emitted padded — the same semantics as the nested-loop outer join.
   [null_safe] marks key columns joined with [<=>] rather than [=]: on
   those, NULL matches NULL (Value.compare's sort order already groups
   NULLs, so the merge needs no other change). *)
let merge_join ?(outer_join = false) ?(null_safe : bool list option)
    ?(residual : (Row.t -> Row.t -> Truth.t) option) ~left_key ~right_key
    (left : t) (right : t) : t =
  let right_arity = Schema.arity right.schema in
  let pad = Row.nulls right_arity in
  let schema = Schema.append left.schema right.schema in
  (* Key positions compiled to arrays once; comparisons read the rows in
     place instead of materializing a key list per row (the per-tuple
     allocation that dominated large merge joins). *)
  let lk = Array.of_list left_key and rk = Array.of_list right_key in
  let nk = Array.length lk in
  let cmp_lr l r =
    let rec go i =
      if i >= nk then 0
      else
        let c = Value.compare (Row.get l lk.(i)) (Row.get r rk.(i)) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let cmp_ll l l' =
    let rec go i =
      if i >= nk then 0
      else
        let c = Value.compare (Row.get l lk.(i)) (Row.get l' lk.(i)) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  (* Keys containing NULL in a *strict* ([=]) column never join (SQL
     semantics): skip such rows on both sides ([outer_join] still pads the
     left ones).  Null-safe ([<=>]) columns keep their NULL rows — they
     group and match like any other value. *)
  let strict =
    match null_safe with
    | None -> Array.make nk true
    | Some flags -> Array.of_list (List.map not flags)
  in
  let key_has_null idxs r =
    let rec go i =
      i < nk
      && ((strict.(i) && Value.is_null (Row.get r idxs.(i))) || go (i + 1))
    in
    go 0
  in
  let residual_ok l r =
    match residual with
    | None -> true
    | Some f -> Truth.to_bool (f l r)
  in
  let right_row = ref (right.next ()) in
  let right_group = ref [] (* current right key group, buffered *) in
  (* Left row whose key the buffered group matches.  The group can be empty
     (no right rows for that key), so the group key is remembered via a left
     representative rather than a member. *)
  let group_of = ref None in
  let pending = ref [] in
  let advance_right_group l =
    (* Load into [right_group] all right rows with l's key; assumes the
       right cursor is positioned at the first row with key >= l's. *)
    right_group := [];
    group_of := Some l;
    let rec loop () =
      match !right_row with
      | Some r when cmp_lr l r = 0 ->
          right_group := r :: !right_group;
          right_row := right.next ();
          loop ()
      | _ -> ()
    in
    loop ();
    right_group := List.rev !right_group
  in
  let rec skip_right_until l =
    match !right_row with
    | Some r when key_has_null rk r || cmp_lr l r > 0 ->
        right_row := right.next ();
        skip_right_until l
    | _ -> ()
  in
  let rec next () =
    match !pending with
    | r :: rest ->
        pending := rest;
        Some r
    | [] -> (
        match left.next () with
        | None -> None
        | Some l ->
            if key_has_null lk l then
              if outer_join then Some (Row.append l pad) else next ()
            else begin
              (match !group_of with
              | Some l0 when cmp_ll l0 l = 0 -> ()
              | _ ->
                  skip_right_until l;
                  (match !right_row with
                  | Some r when cmp_lr l r = 0 -> advance_right_group l
                  | _ ->
                      right_group := [];
                      group_of := Some l));
              let matches =
                List.filter_map
                  (fun r ->
                    if residual_ok l r then Some (Row.append l r) else None)
                  !right_group
              in
              match matches with
              | [] -> if outer_join then Some (Row.append l pad) else next ()
              | first :: rest ->
                  pending := rest;
                  Some first
            end)
  in
  { schema; next }

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

type agg_spec = {
  fn : Sql.Ast.agg; (* which aggregate *)
  arg : int option; (* input column position; None for COUNT-star *)
}

(* One [Eval] accumulator per spec; a row updates each with its column
   (COUNT-star with a non-NULL constant). *)
let fresh_states (aggs : agg_spec array) =
  Array.map (fun s -> Eval.fresh_state s.fn) aggs

let update_states (aggs : agg_spec array) states r =
  for i = 0 to Array.length aggs - 1 do
    Eval.update_state states.(i)
      (match aggs.(i).arg with None -> Value.Int 1 | Some c -> Row.get r c)
  done

(* The global aggregate (no group key) keeps one state array and emits
   exactly one row, empty input included (COUNT 0, MAX NULL): nested
   iteration opens one per correlated COUNT or MAX per outer row, so it
   allocates no table. *)
let global_agg ~(aggs : agg_spec list) ~schema (input : t) : t =
  let agg_arr = Array.of_list aggs in
  let done_ = ref false in
  let next () =
    if !done_ then None
    else begin
      done_ := true;
      let states = fresh_states agg_arr in
      let rec drain () =
        match input.next () with
        | None -> ()
        | Some r ->
            update_states agg_arr states r;
            drain ()
      in
      drain ();
      Some (Array.map Eval.finish_state states)
    end
  in
  { schema; next }

(* Streaming aggregation over input sorted by [group_key]: one state array
   for the open group, finished into a row when the key changes; the
   group-key values come first, then one value per [agg_spec].  An empty
   [group_key] is the global aggregate.  [done_] keeps an exhausted input
   from being pulled again. *)
let group_agg_sorted ~group_key ~(aggs : agg_spec list) ~schema (input : t) : t
    =
  if group_key = [] then global_agg ~aggs ~schema input
  else
    let gk = Array.of_list group_key in
    let agg_arr = Array.of_list aggs in
    let finish (key, states) =
      Row.append key (Array.map Eval.finish_state states)
    in
    let current = ref None (* (key, states) of the open group *) in
    let done_ = ref false in
    let rec next () =
      if !done_ then None
      else
        match input.next () with
        | None ->
            done_ := true;
            Option.map finish !current
        | Some r -> (
            let k = Row.project_positions r gk in
            match !current with
            | Some (k', states) when Row.equal k k' ->
                update_states agg_arr states r;
                next ()
            | previous -> (
                let states = fresh_states agg_arr in
                update_states agg_arr states r;
                current := Some (k, states);
                match previous with Some g -> Some (finish g) | None -> next ()))
    in
    { schema; next }

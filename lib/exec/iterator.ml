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

(* External sort; materializes, sorts, scans. *)
let sort pager ?(dedup = Storage.External_sort.Keep_duplicates) ~key (input : t)
    : t =
  let heap = materialize pager input in
  let sorted = Storage.External_sort.sort pager ~dedup ~key heap in
  Heap_file.delete heap;
  scan sorted

let distinct pager (input : t) : t =
  let key = List.init (Schema.arity input.schema) Fun.id in
  sort pager ~dedup:Storage.External_sort.Drop_duplicates ~key input

(* Hash-based duplicate elimination (beyond the paper): stream the input,
   holding one copy of each distinct row in memory.  No page I/O and no
   sort; output is in first-occurrence order.  The planner's hybrid mode
   chooses this only when the distinct result is estimated to fit the
   buffer pool; {!distinct} remains the paper-faithful sort-based path. *)
let hash_distinct (input : t) : t =
  (* [Row.Tbl], not the structural Hashtbl: duplicate elimination must use
     the same equality the sort-based path gets from [Value.compare] (Int 1
     = Float 1.0, NULL = NULL). *)
  let seen : unit Row.Tbl.t = Row.Tbl.create 256 in
  let rec next () =
    match input.next () with
    | None -> None
    | Some r ->
        if Row.Tbl.mem seen r then next ()
        else begin
          Row.Tbl.add seen r ();
          Some r
        end
  in
  { schema = input.schema; next }

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
(* Hash join (beyond the paper)                                        *)
(* ------------------------------------------------------------------ *)

(* Classic in-memory hash join: build a table on the right side, probe per
   left row.  This is the *modern* comparator — it assumes the build side
   fits in memory, an assumption the 1987 cost model never makes, so the
   planner only uses it when forced (see the bench ablation).  NULL keys in
   strict ([=]) columns never match; [null_safe] columns ([<=>]) let NULL
   match NULL, exactly as in {!merge_join}.  [outer_join] pads unmatched
   left rows. *)
let hash_join ?(outer_join = false) ?(null_safe : bool list option)
    ?(residual : (Row.t -> Row.t -> Truth.t) option) ~left_key ~right_key
    (left : t) (right : t) : t =
  let pad = Row.nulls (Schema.arity right.schema) in
  let schema = Schema.append left.schema right.schema in
  let residual_ok l r =
    match residual with None -> true | Some f -> Truth.to_bool (f l r)
  in
  let lk = Array.of_list left_key and rk = Array.of_list right_key in
  let nk = Array.length lk in
  let strict =
    match null_safe with
    | None -> Array.make nk true
    | Some flags -> Array.of_list (List.map not flags)
  in
  (* [Row.Tbl]: semantic key equality/hash (Int/Float unify numerically,
     NULL equals itself) so hash joins agree with the sort-merge path. *)
  let table : Row.t list Row.Tbl.t = Row.Tbl.create 64 in
  let key_null idxs r =
    let rec go i =
      i < nk
      && ((strict.(i) && Value.is_null (Row.get r idxs.(i))) || go (i + 1))
    in
    go 0
  in
  let rec build () =
    match right.next () with
    | None -> ()
    | Some r ->
        if not (key_null rk r) then begin
          let k = Row.project_positions r rk in
          Row.Tbl.replace table k
            (r :: Option.value (Row.Tbl.find_opt table k) ~default:[])
        end;
        build ()
  in
  build ();
  (* Probe with one reused scratch key buffer: a single allocation for the
     whole probe side instead of one key list per left row. *)
  let probe_key = Array.make nk Value.Null in
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
              if key_null lk l then []
              else begin
                Array.iteri (fun i li -> probe_key.(i) <- Row.get l li) lk;
                List.filter_map
                  (fun r ->
                    if residual_ok l r then Some (Row.append l r) else None)
                  (List.rev
                     (Option.value (Row.Tbl.find_opt table probe_key)
                        ~default:[]))
              end
            in
            match matches with
            | [] -> if outer_join then Some (Row.append l pad) else next ()
            | first :: rest ->
                pending := rest;
                Some first))
  in
  { schema; next }

(* ------------------------------------------------------------------ *)
(* Grouped aggregation                                                 *)
(* ------------------------------------------------------------------ *)

type agg_spec = {
  fn : Sql.Ast.agg; (* which aggregate *)
  arg : int option; (* input column position; None for COUNT-star *)
}

(* Streaming aggregation over input sorted by [group_key]; emits one row per
   group: the group-key values followed by one value per [agg_spec].  When
   [group_key] is empty, emits exactly one (possibly empty-input) row — SQL's
   global-aggregate behaviour. *)
let group_agg_sorted ~group_key ~(aggs : agg_spec list) ~schema (input : t) : t
    =
  let gk = Array.of_list group_key in
  let key_of r = Row.project_positions r gk in
  let finish key members =
    let members = List.rev members in
    let agg_value spec =
      let column =
        match spec.arg with
        | None -> List.map (fun _ -> Value.Int 1) members
        | Some i -> List.map (fun r -> Row.get r i) members
      in
      Eval.aggregate_values spec.fn column
    in
    Row.append key (Row.of_list (List.map agg_value aggs))
  in
  let current = ref None (* (key, members so far) *) in
  let done_ = ref false in
  let emitted_global = ref false in
  let rec next () =
    if !done_ then None
    else
      match input.next () with
      | Some r -> (
          let k = key_of r in
          match !current with
          | None ->
              current := Some (k, [ r ]);
              next ()
          | Some (k', members) ->
              if Row.equal k k' then begin
                current := Some (k', r :: members);
                next ()
              end
              else begin
                current := Some (k, [ r ]);
                Some (finish k' members)
              end)
      | None -> (
          done_ := true;
          match !current with
          | Some (k, members) -> Some (finish k members)
          | None ->
              if group_key = [] && not !emitted_global then begin
                emitted_global := true;
                Some (finish [||] [])
              end
              else None)
  in
  { schema; next }

(* ------------------------------------------------------------------ *)
(* Hash aggregation (beyond the paper)                                 *)
(* ------------------------------------------------------------------ *)

(* Per-group accumulators live in [Eval] (shared with the vectorized
   engine, so the two cannot drift on NULL/empty-input rules). *)
let fresh_state (spec : agg_spec) = Eval.fresh_state spec.fn
let update_state = Eval.update_state
let finish_state = Eval.finish_state

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
      let states = Array.map fresh_state agg_arr in
      let rec drain () =
        match input.next () with
        | None -> ()
        | Some r ->
            for i = 0 to Array.length agg_arr - 1 do
              update_state states.(i)
                (match agg_arr.(i).arg with
                | None -> Value.Int 1
                | Some c -> Row.get r c)
            done;
            drain ()
      in
      drain ();
      Some (Array.map finish_state states)
    end
  in
  { schema; next }

(* Hash-based grouped aggregation: one pass over unsorted input, holding one
   accumulator row per group in memory — no external sort, no page I/O.
   Output order is group first-occurrence order. *)
let grouped_agg ~group_key ~(aggs : agg_spec list) ~schema (input : t) : t =
  let gk = Array.of_list group_key in
  let agg_arr = Array.of_list aggs in
  (* [Row.Tbl]: group keys must unify under [Value.compare] semantics (NULL
     is one group; Int/Float group numerically), matching the sorted path. *)
  let groups : Eval.agg_state array Row.Tbl.t = Row.Tbl.create 256 in
  let order = ref [] (* group keys, most recent first *) in
  let probe = Array.make (Array.length gk) Value.Null in
  let drain () =
    let rec loop () =
      match input.next () with
      | None -> ()
      | Some r ->
          Array.iteri (fun i gi -> probe.(i) <- Row.get r gi) gk;
          let states =
            match Row.Tbl.find_opt groups probe with
            | Some st -> st
            | None ->
                let key = Array.copy probe in
                let st = Array.map fresh_state agg_arr in
                Row.Tbl.add groups key st;
                order := key :: !order;
                st
          in
          Array.iteri
            (fun i spec ->
              let v =
                match spec.arg with
                | None -> Value.Int 1
                | Some c -> Row.get r c
              in
              update_state states.(i) v)
            agg_arr;
          loop ()
    in
    loop ()
  in
  let out = ref None in
  let rec next () =
    match !out with
    | Some remaining -> (
        match !remaining with
        | [] -> None
        | r :: rest ->
            remaining := rest;
            Some r)
    | None ->
        drain ();
        let rows =
          List.rev_map
            (fun key ->
              let states = Row.Tbl.find groups key in
              Row.append key (Array.map finish_state states))
            !order
        in
        out := Some (ref rows);
        next ()
  in
  { schema; next }

(* Same contract as {!group_agg_sorted}, including the one-row global
   aggregate for an empty [group_key]. *)
let hash_group_agg ~group_key ~aggs ~schema input =
  if group_key = [] then global_agg ~aggs ~schema input
  else grouped_agg ~group_key ~aggs ~schema input

(* Name resolution, validation and light typing.

   The analyzer rewrites a parsed query so that:
   - every column reference carries the table alias that binds it
     (innermost-scope-first resolution, so correlation — the paper's
     "join predicate which references a relation of an outer query block" —
     becomes syntactically visible and [Ast.free_tables] is meaningful);
   - [SELECT *] is expanded to explicit columns;
   - string literals compared against DATE (or numeric) columns are coerced
     to values of the column's type, so the paper's quoted date literals
     ('1-1-80') behave as dates;
   and validates the block structure the transformation algorithms assume
   (single-item subqueries in scalar contexts, no bare columns next to
   aggregates without GROUP BY, known tables, unambiguous references).

   Two entry modes share the same traversal:
   - [analyze_exn] / [analyze] raise/return on the *first* violation
     (the historical behavior);
   - [analyze_all] recovers at clause-item granularity (each FROM item,
     select item, predicate, GROUP BY / ORDER BY column) and returns every
     violation as a positioned diagnostic, leaving the offending piece of
     the query unrewritten.  The lint pass builds on this. *)

open Ast
module Value = Relalg.Value
module Schema = Relalg.Schema

(* A positioned analysis diagnostic.  [dspan] is the span of the enclosing
   query block when the precise construct has no position of its own. *)
type diag = { dspan : span; dmsg : string }

exception Error of span * string

(* Raised without a position; the nearest recovery point attaches the
   enclosing block's span. *)
let errf fmt = Fmt.kstr (fun s -> raise (Error (no_span, s))) fmt

type ctx = {
  lookup : string -> Schema.t option;
  emit : (diag -> unit) option;
      (* [None]: raise on first violation; [Some f]: report and recover *)
}

let located span (sp, msg) = ((if span_known sp then sp else span), msg)

(* Run [f]; on a violation either record it (collect mode, returning
   [default]) or re-raise it with the span attached (exn mode). *)
let protect ctx ~span ~default f =
  match f () with
  | v -> v
  | exception Error (sp, msg) -> (
      let sp, msg = located span (sp, msg) in
      match ctx.emit with
      | Some emit ->
          emit { dspan = sp; dmsg = msg };
          default
      | None -> raise (Error (sp, msg)))

type frame = (string * Schema.t) list (* alias -> schema, one query block *)

type scope = frame list (* innermost first *)

(* Bind the FROM items of one block.  In collect mode an unknown table or a
   duplicate alias is reported and the item skipped, so resolution of the
   rest of the block can continue. *)
let make_frame ctx ~span (from : from_item list) : frame =
  let add seen (f : from_item) =
    protect ctx ~span ~default:seen (fun () ->
        let alias = from_alias f in
        if List.mem_assoc alias seen then
          errf "duplicate table alias %s" alias;
        match ctx.lookup f.rel with
        | None -> errf "unknown table %s" f.rel
        | Some schema -> (alias, Schema.rename_rel schema alias) :: seen)
  in
  List.rev (List.fold_left add [] from)

(* Resolve [c] against the scope; returns the qualified reference and the
   column type. *)
let resolve_col (scope : scope) (c : col_ref) : col_ref * Value.ty =
  let find_in_frame frame =
    match c.table with
    | Some t -> (
        match List.assoc_opt t frame with
        | None -> None
        | Some schema -> (
            match Schema.find_opt schema c.column with
            | Some i -> Some (t, (Schema.column schema i).ty)
            | None ->
                errf "table %s has no column %s" t c.column))
    | None ->
        let hits =
          List.filter_map
            (fun (alias, schema) ->
              match Schema.find_opt schema c.column with
              | Some i -> Some (alias, (Schema.column schema i).ty)
              | None -> None)
            frame
        in
        (match hits with
        | [] -> None
        | [ hit ] -> Some hit
        | _ :: _ :: _ -> errf "ambiguous column reference %s" c.column)
  in
  let rec search = function
    | [] ->
        errf "unresolved column reference %a" Pp.pp_col c
    | frame :: outer -> (
        match find_in_frame frame with
        | Some (alias, ty) -> ({ table = Some alias; column = c.column }, ty)
        | None -> search outer)
  in
  search scope

let scalar_type scope = function
  | Col c -> Some (snd (resolve_col scope c))
  | Lit v -> Value.type_of v

(* [scalar_type] for contexts that must not fail on an unresolvable column
   (collect mode has already reported it). *)
let scalar_type_opt scope s =
  match scalar_type scope s with
  | ty -> ty
  | exception Error _ -> None

(* Coerce a string literal to [ty] when the other side of a comparison has
   type [ty]; reject clearly ill-typed comparisons. *)
let coerce_literal (other_ty : Value.ty option) (s : scalar) : scalar =
  match s, other_ty with
  | Lit (Value.Str text), Some ((Value.Tdate | Value.Tint | Value.Tfloat) as ty)
    -> (
      match Value.coerce_string_literal text ty with
      | Some v -> Lit v
      | None ->
          errf "literal '%s' cannot be read at type %s" text
            (Value.type_name ty))
  | (Col _ | Lit _), _ -> s

let check_comparable scope a b =
  match scalar_type_opt scope a, scalar_type_opt scope b with
  | Some ta, Some tb ->
      if not (Value.comparable_ty ta tb) then
        errf "type mismatch: cannot compare %s with %s" (Value.type_name ta)
          (Value.type_name tb)
  | _ -> ()

let resolve_scalar scope = function
  | Col c -> Col (fst (resolve_col scope c))
  | Lit _ as s -> s

(* The single output type of a subquery used in a scalar/IN context.  Needs
   the subquery's own frame pushed; aggregates have intrinsic types. *)
let subquery_item_type scope (sub : query) =
  match sub.select with
  | [ Sel_col c ] -> Some (snd (resolve_col scope c))
  | [ Sel_agg (Count_star | Count _) ] -> Some Value.Tint
  | [ Sel_agg (Avg _) ] -> Some Value.Tfloat
  | [ Sel_agg (Max c | Min c | Sum c) ] -> Some (snd (resolve_col scope c))
  | _ -> None

let rec analyze_query ctx (scope : scope) (q : query) : query =
  let span = q.span in
  let prot default f = protect ctx ~span ~default f in
  let frame = make_frame ctx ~span q.from in
  let scope' = frame :: scope in
  (* Expand SELECT * *)
  let select =
    List.concat_map
      (function
        | Sel_star ->
            List.concat_map
              (fun (alias, schema) ->
                List.map
                  (fun (c : Schema.column) ->
                    Sel_col { table = Some alias; column = c.name })
                  (Schema.columns schema))
              frame
        | item -> [ item ])
      q.select
  in
  let resolve_local_col c = fst (resolve_col [ frame ] c) in
  let select =
    List.map
      (fun item ->
        prot item (fun () ->
            match item with
            | Sel_col c -> Sel_col (resolve_local_col c)
            | Sel_agg a -> Sel_agg (resolve_agg frame a)
            | Sel_star -> assert false))
      select
  in
  let group_by =
    List.map (fun c -> prot c (fun () -> resolve_local_col c)) q.group_by
  in
  (* Aggregate/plain-column discipline *)
  let has_agg =
    List.exists (function Sel_agg _ -> true | _ -> false) select
  in
  let plain_cols =
    List.filter_map (function Sel_col c -> Some c | _ -> None) select
  in
  prot () (fun () ->
      if group_by = [] && has_agg && plain_cols <> [] then
        errf "SELECT mixes aggregates and plain columns without GROUP BY");
  if group_by <> [] then
    List.iter
      (fun c ->
        prot () (fun () ->
            if not (List.mem c group_by) then
              errf "column %a must appear in GROUP BY" Pp.pp_col c))
      plain_cols;
  let where =
    List.map
      (fun p -> prot p (fun () -> analyze_predicate ctx scope' p))
      q.where
  in
  (* ORDER BY refers to output columns (by unqualified name). *)
  let output_names =
    List.map
      (function
        | Sel_col c -> c.column
        | Sel_agg _ -> "" (* aggregates are unnameable in this subset *)
        | Sel_star -> assert false)
      select
  in
  let order_by =
    List.map
      (fun ((c : col_ref), dir) ->
        prot (c, dir) (fun () ->
            (match c.table with
            | Some _ ->
                errf "ORDER BY uses unqualified output column names (got %a)"
                  Pp.pp_col c
            | None -> ());
            if not (List.mem c.column output_names) then
              errf "ORDER BY column %s is not in the SELECT list" c.column;
            (c, dir)))
      q.order_by
  in
  { q with select; from = q.from; where; group_by; order_by }

and resolve_agg frame a =
  let r c = fst (resolve_col [ frame ] c) in
  match a with
  | Count_star -> Count_star
  | Count c -> Count (r c)
  | Max c -> Max (r c)
  | Min c -> Min (r c)
  | Sum c ->
      let c', ty = resolve_col [ frame ] c in
      (match ty with
      | Value.Tint | Value.Tfloat -> Sum c'
      | Value.Tstr | Value.Tdate ->
          errf "SUM over non-numeric column %a" Pp.pp_col c)
  | Avg c ->
      let c', ty = resolve_col [ frame ] c in
      (match ty with
      | Value.Tint | Value.Tfloat -> Avg c'
      | Value.Tstr | Value.Tdate ->
          errf "AVG over non-numeric column %a" Pp.pp_col c)

and analyze_subquery ctx scope ~context (sub : query) : query =
  protect ctx ~span:sub.span ~default:() (fun () ->
      if sub.order_by <> [] then errf "ORDER BY is not allowed in a subquery");
  let analyzed = analyze_query ctx scope sub in
  protect ctx ~span:sub.span ~default:() (fun () ->
      match context with
      | `Scalar | `In ->
          if List.length analyzed.select <> 1 then
            errf "subquery used as a value must select exactly one item"
      | `Exists -> ());
  analyzed

and analyze_predicate ctx scope (p : predicate) : predicate =
  match p with
  | Cmp (a, op, b) ->
      let a = resolve_scalar scope a and b = resolve_scalar scope b in
      let a = coerce_literal (scalar_type_opt scope b) a in
      let b = coerce_literal (scalar_type_opt scope a) b in
      check_comparable scope a b;
      Cmp (a, op, b)
  | Cmp_outer (a, op, b) ->
      let a = resolve_scalar scope a and b = resolve_scalar scope b in
      Cmp_outer (a, op, b)
  | Cmp_subq (a, op, sub) ->
      let a = resolve_scalar scope a in
      let sub = analyze_subquery ctx scope ~context:`Scalar sub in
      let sub_frame = make_frame ctx ~span:sub.span sub.from in
      let a =
        match subquery_item_type (sub_frame :: scope) sub with
        | ty -> coerce_literal ty a
        | exception Error _ -> a
      in
      Cmp_subq (a, op, sub)
  | In_subq (a, sub) ->
      let a = resolve_scalar scope a in
      let sub = analyze_subquery ctx scope ~context:`In sub in
      let sub_frame = make_frame ctx ~span:sub.span sub.from in
      let a =
        match subquery_item_type (sub_frame :: scope) sub with
        | ty -> coerce_literal ty a
        | exception Error _ -> a
      in
      In_subq (a, sub)
  | Not_in_subq (a, sub) ->
      let a = resolve_scalar scope a in
      let sub = analyze_subquery ctx scope ~context:`In sub in
      Not_in_subq (a, sub)
  | Exists sub -> Exists (analyze_subquery ctx scope ~context:`Exists sub)
  | Not_exists sub ->
      Not_exists (analyze_subquery ctx scope ~context:`Exists sub)
  | Quant (a, op, qf, sub) ->
      let a = resolve_scalar scope a in
      let sub = analyze_subquery ctx scope ~context:`In sub in
      Quant (a, op, qf, sub)

(* Raise [Error] (with the best span available) on the first violation. *)
let analyze_exn ~lookup q = analyze_query { lookup; emit = None } [] q

(* Best-effort rewrite plus *every* violation as positioned diagnostics.
   When the diagnostic list is empty the returned query is fully analyzed.
   Diagnostics are sorted by source position (unknown spans last), then by
   message for a deterministic tie-break — traversal order visits WHERE
   before SELECT in some passes, which used to leak out as
   position-disordered reports. *)
let analyze_all ~lookup q : query * diag list =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let q' = analyze_query { lookup; emit = Some emit } [] q in
  let position { dspan; _ } =
    if span_known dspan then
      (0, dspan.sp_start.line, dspan.sp_start.col, dspan.sp_end.line,
       dspan.sp_end.col)
    else (1, 0, 0, 0, 0)
  in
  let order a b =
    match compare (position a) (position b) with
    | 0 -> compare a.dmsg b.dmsg
    | c -> c
  in
  (q', List.stable_sort order (List.rev !diags))

let format_diag { dspan; dmsg } =
  if span_known dspan then Fmt.str "%a: %s" pp_span dspan dmsg else dmsg

let analyze ~lookup q =
  match analyze_exn ~lookup q with
  | q -> Ok q
  | exception Error (sp, msg) -> Error (format_diag { dspan = sp; dmsg = msg })

(* ------------------------------------------------------------------ *)
(* Output schema                                                       *)
(* ------------------------------------------------------------------ *)

(* Schema of the rows an (analyzed) query produces, with provenance [rel],
   its columns named by [item_output_name]. *)
let output_schema ~lookup ~rel (q : query) : Schema.t =
  let frame = make_frame { lookup; emit = None } ~span:q.span q.from in
  let scope = [ frame ] in
  let column_of_item item =
    let ty =
      match item with
      | Sel_col c | Sel_agg (Max c | Min c | Sum c) ->
          snd (resolve_col scope c)
      | Sel_agg (Count_star | Count _) -> Value.Tint
      | Sel_agg (Avg _) -> Value.Tfloat
      | Sel_star -> errf "output_schema: query not analyzed (SELECT *)"
    in
    (item_output_name item, ty)
  in
  Schema.of_columns ~rel (List.map column_of_item q.select)

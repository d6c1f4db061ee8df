(* Structural verification of transformed programs.

   A transformation (NEST-N-J, NEST-JA2, NEST-G, the sec. 8 extension
   rewrites) turns a nested query into an ordered list of temp-table
   definitions plus a flat main query.  [verify] re-checks the output
   against the invariants the paper's corrected algorithms guarantee — the
   exact invariants Kim's original NEST-JA violates:

   - NQ900: every definition and the main query must be flat (canonical);
   - NQ901: re-analysis against the progressively built temp schemas must
     resolve every reference (no dangling columns/tables);
   - NQ902: joined columns must have compatible types (including the
     outer-join predicate [Cmp_outer], which the analyzer does not type);
   - NQ903: every GROUP BY key of a grouped temp must be joined back under
     equality by each consumer — grouping keyed by a column that is then
     range-joined is exactly the sec. 5.3 bug;
   - NQ904: a grouped aggregate temp carries an outer join iff its
     aggregate is COUNT (sec. 5.1-5.2/6);
   - NQ905: an outer-joined COUNT must count a column of the null-padded
     side, never [*] (sec. 5.2.1);
   - NQ906: every temp must be referenced by a later definition or the
     main query.

   Each temp registers under [Analyzer.output_schema], whose column names
   ([Ast.item_output_name]) are the ones the program's references use.
   The verifier deliberately takes the program as plain data
   ([(name, def) list] + main) so this library does not depend on the
   optimizer — [Planner] calls it through a thin wrapper. *)

module Ast = Sql.Ast
module Value = Relalg.Value
module Schema = Relalg.Schema
module D = Diagnostics

type program = { temps : (string * Ast.query) list; main : Ast.query }

(* ------------------------------------------------------------------ *)
(* Helpers over a single definition                                    *)
(* ------------------------------------------------------------------ *)

let is_flat (q : Ast.query) =
  not (List.exists Ast.predicate_has_subquery q.Ast.where)

let outer_join_preds (q : Ast.query) =
  List.filter_map
    (function
      | Ast.Cmp_outer (Ast.Col a, op, Ast.Col b) -> Some (a, op, b)
      | Ast.Cmp_outer _ -> None
      | _ -> None)
    q.Ast.where

let grouped_agg (q : Ast.query) =
  if q.Ast.group_by = [] then None
  else
    List.find_map
      (function Ast.Sel_agg a -> Some a | _ -> None)
      q.Ast.select

(* Alias under which relation [rel] is visible inside [q]'s FROM. *)
let aliases_of_rel (q : Ast.query) rel =
  List.filter_map
    (fun (f : Ast.from_item) ->
      if String.equal f.Ast.rel rel then Some (Ast.from_alias f) else None)
    q.Ast.from

(* Columns of alias [t] that consumer [q] joins on, per comparison kind.
   Both [Cmp] and [Cmp_outer] count as joins. *)
let join_columns (q : Ast.query) t =
  List.filter_map
    (function
      | Ast.Cmp (Ast.Col a, op, Ast.Col b)
      | Ast.Cmp_outer (Ast.Col a, op, Ast.Col b) ->
          if a.Ast.table = Some t then Some (a.Ast.column, op)
          else if b.Ast.table = Some t then Some (b.Ast.column, op)
          else None
      | _ -> None)
    q.Ast.where

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let verify ~lookup ~temps ~main : D.t list =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let temp_schemas = ref [] in
  let lookup' name =
    match List.assoc_opt name !temp_schemas with
    | Some s -> Some s
    | None -> lookup name
  in
  (* Flatness, reference resolution and type checks for one query. *)
  let check_query ~what (q : Ast.query) =
    if not (is_flat q) then
      emit
        (D.make "NQ900" q.Ast.span
           "%s still contains a nested predicate: the transformation did \
            not produce a canonical program"
           what);
    let _, adiags = Sql.Analyzer.analyze_all ~lookup:lookup' q in
    let is_type_mismatch msg =
      String.length msg >= 13 && String.sub msg 0 13 = "type mismatch"
    in
    List.iter
      (fun (d : Sql.Analyzer.diag) ->
        let code =
          if is_type_mismatch d.Sql.Analyzer.dmsg then "NQ902" else "NQ901"
        in
        emit (D.make code d.Sql.Analyzer.dspan "%s: %s" what d.Sql.Analyzer.dmsg))
      adiags;
    (* [Cmp_outer] is generated, so the analyzer resolves but does not type
       it; do that here. *)
    let frame_ty (c : Ast.col_ref) =
      match c.Ast.table with
      | None -> None
      | Some t -> (
          match lookup' t with
          | None -> None
          | Some schema -> (
              match Schema.find_opt schema c.Ast.column with
              | Some i -> Some (Schema.column schema i).Schema.ty
              | None | (exception Schema.Ambiguous _) -> None))
    in
    (* Temps are registered under their own name, so an alias equals the
       relation name here; plain base tables too (the paper's queries do
       not alias in transformed output). *)
    (* A non-equality outer join is legitimate: when the correlation is a
       theta comparison AND the aggregate is COUNT, NEST-JA2's TEMP3
       outer-joins TEMP1 to the inner restriction under that theta op
       (sec. 5.3 + 5.2 combined).  Only the operand types are checked. *)
    List.iter
      (fun (a, _op, b) ->
        match (frame_ty a, frame_ty b) with
        | Some ta, Some tb ->
            let numeric = function
              | Value.Tint | Value.Tfloat -> true
              | Value.Tstr | Value.Tdate -> false
            in
            if not (Value.equal_ty ta tb || (numeric ta && numeric tb)) then
              emit
                (D.make "NQ902" q.Ast.span
                   "%s: outer join compares %a (%s) with %a (%s)" what
                   Sql.Pp.pp_col a (Value.type_name ta) Sql.Pp.pp_col b
                   (Value.type_name tb))
        | _ -> () (* unresolved: NQ901 already reported *))
      (outer_join_preds q)
  in
  let consumers_of name rest =
    List.filter
      (fun (_, (c : Ast.query)) -> aliases_of_rel c name <> [])
      rest
  in
  (* Walk definitions in order, registering each temp's schema before the
     next definition resolves against it. *)
  let rec go = function
    | [] -> check_query ~what:"main query" main
    | (name, def) :: rest ->
        let what = Printf.sprintf "temp %s" name in
        check_query ~what def;
        let later = rest @ [ ("<main>", main) ] in
        let consumers = consumers_of name later in
        (* NQ906 *)
        if consumers = [] then
          emit
            (D.make "NQ906" def.Ast.span
               "%s is defined but never referenced by a later definition \
                or the main query"
               what);
        (* NQ903: every GROUP BY key must be equality-joined back. *)
        (match def.Ast.group_by with
        | [] -> ()
        | gb ->
            let gb_names =
              List.map (fun (c : Ast.col_ref) -> c.Ast.column) gb
            in
            List.iter
              (fun (cname, consumer) ->
                List.iter
                  (fun alias ->
                    let joined = join_columns consumer alias in
                    let eq_joined =
                      List.filter_map
                        (fun (col, op) ->
                          match op with
                          | Ast.Eq | Ast.Eq_null -> Some col
                          | _ -> None)
                        joined
                    in
                    let missing =
                      List.filter
                        (fun g -> not (List.mem g eq_joined))
                        gb_names
                    in
                    List.iter
                      (fun g ->
                        let how =
                          match List.assoc_opt g joined with
                          | Some op ->
                              Printf.sprintf "it is joined under %s"
                                (Ast.cmp_name op)
                          | None -> "it is not joined at all"
                        in
                        emit
                          (D.make "NQ903" consumer.Ast.span
                             ~hint:
                               "sec. 5.3/6: grouping keyed by a column \
                                that is then range-joined regroups by the \
                                wrong side; NEST-JA2 groups a theta-joined \
                                temp by the outer columns instead"
                             "%s groups by %s but %s does not join it back \
                              under equality (%s): group boundaries do not \
                              match the join-back"
                             what g
                             (if cname = "<main>" then "the main query"
                              else "temp " ^ cname)
                             how))
                      missing)
                  (aliases_of_rel consumer name))
              consumers);
        (* NQ904 / NQ905: outer-join/COUNT discipline of grouped temps. *)
        let outer = outer_join_preds def in
        (match grouped_agg def with
        | None -> ()
        | Some agg ->
            let is_count =
              match agg with
              | Ast.Count_star | Ast.Count _ -> true
              | _ -> false
            in
            (match (outer, is_count) with
            | [], true ->
                emit
                  (D.make "NQ904" def.Ast.span
                     ~hint:
                       "sec. 5.1-5.2: without the outer join, outer tuples \
                        with an empty inner set vanish from the grouped \
                        temp — the COUNT bug"
                     "%s computes a grouped COUNT without an outer join: \
                      zero-count groups are lost"
                     what)
            | _ :: _, false ->
                emit
                  (D.make "NQ904" def.Ast.span
                     "%s uses an outer join but its aggregate is %s: the \
                      paper only needs the outer join for COUNT (sec. 6)"
                     what (Ast.agg_name agg))
            | _ -> ());
            if outer <> [] && is_count then begin
              let padded =
                List.filter_map
                  (fun ((_ : Ast.col_ref), _, (b : Ast.col_ref)) ->
                    b.Ast.table)
                  outer
              in
              match agg with
              | Ast.Count_star ->
                  emit
                    (D.make "NQ905" def.Ast.span
                       ~hint:
                         "sec. 5.2.1: COUNT(*) counts the NULL-padded rows \
                          too, turning empty groups into count 1; count a \
                          column of the padded side instead"
                       "%s combines an outer join with COUNT(*)" what)
              | Ast.Count c
                when not
                       (match c.Ast.table with
                       | Some t -> List.mem t padded
                       | None -> false) ->
                  emit
                    (D.make "NQ905" def.Ast.span
                       ~hint:
                         "sec. 5.2.1: only a column of the NULL-padded \
                          side is NULL exactly for the padding rows"
                       "%s counts %a, which is not on the NULL-padded side \
                        of its outer join"
                       what Sql.Pp.pp_col c)
              | _ -> ()
            end);
        (* Register the temp's output schema for later definitions; a
           broken definition was already reported, so just skip it. *)
        (match Sql.Analyzer.output_schema ~lookup:lookup' ~rel:name def with
        | schema -> temp_schemas := (name, schema) :: !temp_schemas
        | exception Sql.Analyzer.Error _ -> ());
        go rest
  in
  go temps;
  D.sort !diags

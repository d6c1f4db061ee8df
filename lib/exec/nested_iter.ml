(* Reference evaluator: nested iteration, the System R strategy the paper
   describes ([SEL 79:33]) and whose results define correctness for every
   transformation ("matches the result obtained by nested iteration").

   The inner query block of a nested predicate is (conceptually) re-evaluated
   for each tuple of the outer block; correlated references resolve through
   the environment.  Everything runs over in-memory relations — this
   evaluator is the semantic oracle, not the performance contender; the
   paged plan [Sysr_iteration] lowers measures the I/O cost of the same
   strategy, and shares no code with this one. *)

module Value = Relalg.Value
module Truth = Relalg.Truth
module Schema = Relalg.Schema
module Row = Relalg.Row
module Relation = Relalg.Relation
open Sql.Ast

exception Runtime_error = Eval.Runtime_error

let errf fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

(* One qualifying assignment of tuples to a block's FROM aliases. *)
type assignment = Env.t

let rec eval_query ~(lookup_relation : string -> Relation.t) (env : Env.t)
    (q : query) : Relation.t =
  let frames =
    List.map
      (fun (f : from_item) ->
        let alias = from_alias f in
        let rel = lookup_relation f.rel in
        (alias, Schema.rename_rel (Relation.schema rel) alias, Relation.rows rel))
      q.from
  in
  (* Enumerate the cross product of the FROM relations, keeping assignments
     whose conjunction evaluates to True. *)
  let holds acc preds =
    Truth.conjunction (List.map (eval_predicate ~lookup_relation acc) preds)
    = Truth.True
  in
  let rec assignments acc leaf = function
    | [] -> leaf acc
    | (alias, schema, rows) :: rest ->
        List.concat_map
          (fun row -> assignments (Env.bind acc ~alias ~schema ~row) leaf rest)
          rows
  in
  let padded =
    List.find_map
      (function Cmp_outer (_, _, Col c) -> c.table | _ -> None)
      q.where
  in
  let qualifying =
    match padded with
    | None ->
        assignments env (fun a -> if holds a q.where then [ a ] else []) frames
    | Some p ->
        (* A transformed program's left outer join (§5.2): the alias right
           of its [Cmp_outer] predicates, first restricted by the
           predicates naming only it, is padded with NULLs for each
           assignment of the other frames none of its rows joins. *)
        let aliases = function
          | Cmp (a, _, b) | Cmp_outer (a, _, b) ->
              List.filter_map
                (function Col c -> c.table | Lit _ -> None)
                [ a; b ]
          | _ -> []
        in
        let names_p x = List.mem p (aliases x) in
        let only_p x = List.for_all (( = ) p) (aliases x) in
        let padded, preserved =
          List.partition (fun (a, _, _) -> a = p) frames
        in
        let _, schema, rows = List.hd padded in
        let pre, rest = List.partition (fun x -> not (names_p x)) q.where in
        let local, join = List.partition only_p rest in
        let bind a row = Env.bind a ~alias:p ~schema ~row in
        let rows = List.filter (fun r -> holds (bind Env.empty r) local) rows in
        let nulls = Row.nulls (Schema.arity schema) in
        assignments env
          (fun a ->
            if not (holds a pre) then []
            else
              match
                List.filter (fun m -> holds m join) (List.map (bind a) rows)
              with
              | [] -> [ bind a nulls ]
              | matches -> matches)
          preserved
  in
  let result_rows = eval_select ~qualifying q in
  let schema = output_schema ~lookup_relation q in
  let rel = Relation.make schema result_rows in
  if q.distinct then Relation.distinct rel else rel

and output_schema ~lookup_relation (q : query) : Schema.t =
  Sql.Analyzer.output_schema
    ~lookup:(fun name ->
      match lookup_relation name with
      | rel -> Some (Relation.schema rel)
      | exception _ -> None)
    ~rel:"result" q

and eval_select ~qualifying (q : query) : Row.t list =
  let has_agg = select_has_agg q in
  if (not has_agg) && q.group_by = [] then
    (* Plain projection of each qualifying assignment. *)
    List.map
      (fun asg ->
        Row.of_list
          (List.map
             (function
               | Sel_col c -> Env.lookup asg c
               | Sel_agg _ | Sel_star -> assert false)
             q.select))
      qualifying
  else begin
    (* Group the qualifying assignments (a single global group when there is
       no GROUP BY) and evaluate aggregates per group. *)
    let group_key asg =
      List.map (fun c -> Env.lookup asg c) q.group_by
    in
    let groups : (Value.t list * assignment list ref) list ref = ref [] in
    List.iter
      (fun asg ->
        let key = group_key asg in
        match
          List.find_opt
            (fun (k, _) -> List.equal Value.equal k key)
            !groups
        with
        | Some (_, members) -> members := asg :: !members
        | None -> groups := !groups @ [ (key, ref [ asg ]) ])
      qualifying;
    let groups =
      if q.group_by = [] && !groups = [] then [ ([], ref []) ] else !groups
    in
    List.map
      (fun (key, members) ->
        let item = function
          | Sel_col c ->
              (* Analyzer guarantees c is in group_by. *)
              let rec nth cols ks =
                match cols, ks with
                | gc :: _, v :: _ when gc = c -> v
                | _ :: cols, _ :: ks -> nth cols ks
                | _ -> errf "column %a not in GROUP BY" Sql.Pp.pp_col c
              in
              nth q.group_by key
          | Sel_agg a ->
              let column =
                match agg_arg a with
                | None -> List.map (fun _ -> Value.Int 1) !members
                | Some c -> List.map (fun asg -> Env.lookup asg c) !members
              in
              Eval.aggregate_values a column
          | Sel_star -> assert false
        in
        Row.of_list (List.map item q.select))
      groups
  end

and eval_predicate ~lookup_relation (env : Env.t) (p : predicate) : Truth.t =
  let subquery_column sub =
    let rel = eval_query ~lookup_relation env sub in
    if Schema.arity (Relation.schema rel) <> 1 then
      errf "subquery must return a single column";
    Relation.single_column rel
  in
  match p with
  | Cmp (a, op, b) -> Eval.cmp_values op (Eval.scalar env a) (Eval.scalar env b)
  | Cmp_outer (a, op, b) ->
      Eval.cmp_values op (Eval.scalar env a) (Eval.scalar env b)
  | Cmp_subq (a, op, sub) -> (
      let x = Eval.scalar env a in
      match subquery_column sub with
      | [] -> Eval.cmp_values op x Value.Null
      | [ v ] -> Eval.cmp_values op x v
      | _ :: _ :: _ -> errf "scalar subquery returned more than one row")
  | In_subq (a, sub) -> Eval.in_values (Eval.scalar env a) (subquery_column sub)
  | Not_in_subq (a, sub) ->
      Truth.not_ (Eval.in_values (Eval.scalar env a) (subquery_column sub))
  | Exists sub ->
      let rel = eval_query ~lookup_relation env sub in
      Truth.of_bool (not (Relation.is_empty rel))
  | Not_exists sub ->
      let rel = eval_query ~lookup_relation env sub in
      Truth.of_bool (Relation.is_empty rel)
  | Quant (a, op, qf, sub) ->
      Eval.quant_values op qf (Eval.scalar env a) (subquery_column sub)

(* Entry point over a catalog. *)
let run (catalog : Storage.Catalog.t) (q : query) : Relation.t =
  Presentation.apply_order q
    (eval_query ~lookup_relation:(Storage.Catalog.relation catalog) Env.empty q)

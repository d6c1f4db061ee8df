(* The recursive general transformation (§9 of the paper, procedure
   nest_g).

   Postorder over the query tree: inner blocks are transformed to canonical
   form first, so by the time a nested predicate is classified its inner
   block has inherited any deeper correlation predicates ("trans-aggregate"
   references).  Then:

     - type-A   : the inner block is an uncorrelated single aggregate; the
                  paper evaluates it to a constant.  We materialize it as a
                  one-row temp table and join it in — the same single
                  evaluation, kept inside the program representation so the
                  transformation stays a pure rewrite;
     - type-N/J : algorithm NEST-N-J merges the blocks;
     - type-JA  : algorithm NEST-JA2 creates the aggregate temp tables and
                  reduces the predicate to type-J form, already merged.

   EXISTS/NOT EXISTS/ANY/ALL predicates are first rewritten per §8.
   [x IN (aggregate subquery)] is normalized to [x = (aggregate subquery)].

   NOT IN has no transformation in the paper.  [x NOT IN Q] is rewritten
   to [0 = (SELECT COUNT(item) FROM ... AND item = x)] — an extension
   beyond the paper, exact only when neither [x] nor the inner item can be
   NULL, so it shares the §8 COUNT forms' guard and refuses otherwise
   (callers fall back to nested iteration; see DESIGN.md). *)

open Sql.Ast

(* Kim's Lemma 1 (and therefore NEST-N-J) ignores result *multiplicity*:
   turning IN into a join duplicates rows when several inner tuples match.
   Under a plain SELECT, or under MAX/MIN, this is invisible; under
   COUNT/SUM/AVG it corrupts the aggregate.  [Safe] mode (the default)
   therefore merges an *uncorrelated* IN-block below a duplicate-sensitive
   aggregate against a DISTINCT temp table (the projection idiom the paper
   itself borrows from INGRES in §5.4.1), and refuses the *correlated* case
   (whose general fix — magic sets / Dayal-style decorrelation — postdates
   the paper).  [Safe] also refuses to merge [x op (SELECT col ...)] over a
   non-aggregate block: SQL fails the statement when the block returns
   several rows, and the join would answer one row per match.  [Paper]
   mode reproduces the published algorithm verbatim, bugs included. *)
type semantics = Safe | Paper

type scope = (string * string) list (* alias -> relation, enclosing blocks *)

let scope_of_query (q : query) : scope =
  List.map (fun f -> (from_alias f, f.rel)) q.from

(* Rewrite [x NOT IN sub] into an aggregate form NEST-JA2 can handle.
   Exact only when neither [x] nor the inner item can be NULL (a NULL on
   either side makes the inlined equality Unknown, so the COUNT misses
   rows NOT IN must see) and when [x]'s alias is not captured by [sub] —
   the same guard as the §8 COUNT forms, so it is shared. *)
let not_in_to_count ~nullable ~scope (x : scalar) (sub : query) : predicate =
  let item =
    match sub.select with
    | [ Sel_col c ] -> c
    | _ -> Program.refuse "NOT IN subquery must select one plain column"
  in
  Extensions.check_count_form ~nullable ~scope x sub item;
  Cmp_subq
    ( Lit (Relalg.Value.Int 0),
      Eq,
      {
        sub with
        select = [ Sel_agg (Count item) ];
        where = sub.where @ [ Cmp (Col item, Eq, x) ];
        distinct = false;
      } )

(* COUNT/SUM/AVG see every duplicate; MAX/MIN and plain selects do not. *)
let duplicate_sensitive (q : query) =
  List.exists
    (function
      | Sel_agg (Count_star | Count _ | Sum _ | Avg _) -> true
      | Sel_agg (Max _ | Min _) | Sel_col _ | Sel_star -> false)
    q.select

let describe_from (q : query) =
  String.concat ", " (List.map (fun f -> from_alias f) q.from)

let rec transform_block ~fresh ~(scope : scope) ~semantics
    ~nullable ~probe_keys ~(on_step : string -> unit) ~notes ~probes
    (acc : Program.temp list ref) (q : query) : query =
  let local_scope = scope_of_query q @ scope in
  (* §8 rewrites at this level. *)
  let q =
    {
      q with
      where =
        List.map
          (fun p ->
            let p' =
              Extensions.rewrite_predicate ~paper:(semantics = Paper)
                ~nullable ~scope:local_scope p
            in
            if p' != p then
              on_step
                (Fmt.str "rewrote per sec. 8: %a  ==>  %a" Sql.Pp.pp_predicate
                   p Sql.Pp.pp_predicate p');
            p')
          q.where;
    }
  in
  (* Normalizations that expose the JA shape. *)
  let q =
    {
      q with
      where =
        List.map
          (fun p ->
            match p with
            | In_subq (x, sub) when select_has_agg sub -> Cmp_subq (x, Eq, sub)
            | Not_in_subq (x, sub) ->
                not_in_to_count ~nullable ~scope:local_scope x sub
            | _ -> p)
          q.where;
    }
  in
  match List.find_opt predicate_has_subquery q.where with
  | None -> q
  | Some pred ->
      let inner =
        match Classify.inner_block pred with
        | Some sub -> sub
        | None -> assert false
      in
      (* Recurse first (postorder): the inner block becomes canonical. *)
      let inner' =
        transform_block ~fresh ~scope:local_scope ~semantics
          ~nullable ~probe_keys ~on_step ~notes ~probes acc inner
      in
      let pred' =
        match pred with
        | Cmp_subq (x, op, _) -> Cmp_subq (x, op, inner')
        | In_subq (x, _) -> In_subq (x, inner')
        | Not_in_subq _ | Exists _ | Not_exists _ | Quant _ | Cmp _
        | Cmp_outer _ ->
            assert false (* removed by the rewrites above *)
      in
      let q =
        {
          q with
          where = List.map (fun p -> if p == pred then pred' else p) q.where;
        }
      in
      let q =
        match Classify.classify_predicate pred' with
        | None -> assert false
        | Some Classify.Type_n | Some Classify.Type_j -> (
            match pred' with
            | In_subq (_, sub)
              when semantics = Safe && duplicate_sensitive q
                   && not (is_correlated sub) ->
                (* Merging would inflate the aggregate; join a DISTINCT
                   projection instead. *)
                let merged, temp =
                  Nest_n_j.merge_predicate_dedup q pred' ~temp_name:(fresh ())
                in
                acc := !acc @ [ temp ];
                on_step
                  (Fmt.str
                     "dedup-merged uncorrelated IN block below a \
                      duplicate-sensitive aggregate via DISTINCT temp %s"
                     temp.Program.name);
                merged
            | Cmp_subq _ when semantics = Safe ->
                (* [x op (SELECT col ...)] is an error when the block
                   returns several rows; the merged join would instead
                   answer one row per match. *)
                Program.refuse
                  "scalar comparison with a subquery that is not an \
                   aggregate: SQL fails it when the block returns several \
                   rows, the NEST-N-J join would not (use ~semantics:Paper \
                   to force the merge)"
            | (In_subq _ | Cmp_subq _) when semantics = Safe && duplicate_sensitive q ->
                Program.refuse
                  "correlated subquery below a duplicate-sensitive \
                   aggregate: NEST-N-J would change the aggregate's \
                   multiplicity (known limitation of the paper's \
                   algorithms; use ~semantics:Paper to force it)"
            | _ ->
                let inner_class =
                  match Classify.classify_predicate pred' with
                  | Some c -> Classify.name c
                  | None -> "?"
                in
                let merged = Nest_n_j.merge_predicate q pred' in
                on_step
                  (Fmt.str
                     "NEST-N-J: merged %s inner block (FROM %s) into the \
                      block over %s"
                     inner_class (describe_from inner') (describe_from q));
                merged)
        | Some Classify.Type_a ->
            (* Materialize the constant as a one-row temp and join it in. *)
            let x, op, sub =
              match pred' with
              | Cmp_subq (x, op, sub) -> (x, op, sub)
              | _ ->
                  Program.refuse "type-A predicate must be a scalar comparison"
            in
            let name = fresh () in
            acc := !acc @ [ { Program.name; def = sub } ];
            on_step
              (Fmt.str
                 "type-A: materialized the uncorrelated aggregate block as \
                  one-row temp %s"
                 name);
            let agg_col =
              match sub.select with
              | [ item ] ->
                  { table = Some name; column = item_output_name item }
              | _ -> Program.refuse "type-A block must select one item"
            in
            {
              q with
              from = q.from @ [ from name ];
              where =
                List.map
                  (fun p ->
                    if p == pred' then Cmp (x, op, Col agg_col) else p)
                  q.where;
            }
        | Some Classify.Type_ja ->
            let rel_of_alias alias = List.assoc_opt alias scope in
            let { Nest_ja2.temps; rewritten; probe_note; probe } =
              Nest_ja2.transform q pred' ~fresh ~rel_of_alias ~probe_keys ()
            in
            acc := !acc @ temps;
            on_step
              (Fmt.str
                 "NEST-JA2: type-JA block (FROM %s) became temps %s; \
                  correlation predicates replaced by equality joins"
                 (describe_from inner')
                 (String.concat ", "
                    (List.map (fun t -> t.Program.name) temps)));
            Option.iter
              (fun note ->
                on_step note;
                notes := !notes @ [ note ])
              probe_note;
            probes := !probes @ Option.to_list probe;
            rewritten
      in
      transform_block ~fresh ~scope ~semantics ~nullable
        ~probe_keys ~on_step ~notes ~probes acc q

(* [transform ~fresh q] reduces a nested query of arbitrary depth to a
   canonical program.  [nullable] feeds the soundness guards of the §8
   COUNT forms and the NOT IN extension (default: everything may be NULL,
   so those rewrites refuse).  [probe_keys] is NEST-JA2's keyed-TEMP2
   decision (default: never, the paper's program).  @raise Program.Refused on
   shapes outside the paper's algorithms. *)
let transform ?(semantics = Safe)
    ?(nullable = Extensions.default_nullable)
    ?(probe_keys = fun (_ : Program.key_probe) -> None)
    ?(on_step = fun (_ : string) -> ()) ~(fresh : unit -> string) (q : query)
    : Program.t =
  let acc = ref [] and notes = ref [] and probes = ref [] in
  let main =
    transform_block ~fresh ~scope:[] ~semantics ~nullable
      ~probe_keys ~on_step ~notes ~probes acc q
  in
  { Program.temps = !acc; main; notes = !notes; probes = !probes }

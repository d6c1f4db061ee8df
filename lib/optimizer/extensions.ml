(* §8 extensions: rewriting EXISTS / NOT EXISTS / ANY / ALL predicates into
   the scalar and set-containment forms the transformation algorithms
   accept.

   EXISTS Q      ->  0 <  (SELECT COUNT(star) FROM ... )
   NOT EXISTS Q  ->  0 =  (SELECT COUNT(star) FROM ... )
   x <  ANY Q    ->  x <  (SELECT MAX(item) ...)     (likewise <=)
   x >  ANY Q    ->  x >  (SELECT MIN(item) ...)     (likewise >=)
   x =  ANY Q    ->  x IN Q
   x != ALL Q    ->  x NOT IN Q                      (standard equivalence)
   x != ANY Q    ->  0 < (SELECT COUNT(star) ... AND x != item)
   x op ALL Q    ->  0 = (SELECT COUNT(star) ... AND x nop item)
                     for op in < <= > >=, nop the negation of op

   Soundness under three-valued logic, case by case (WHERE context, where
   False and Unknown both reject):

   - EXISTS / NOT EXISTS: COUNT(star) is two-valued; exact.
   - x = ANY -> IN: IN *is* the existential closure of =; exact.
   - range ANY -> MIN/MAX: aggregates ignore NULL items, and [x op NULL]
     is never True, so dropping them changes nothing; an empty (or
     all-NULL) inner gives MAX = NULL, hence Unknown, where ANY gives
     False — both reject.  Exact in WHERE position.
   - x != ALL -> NOT IN: NOT IN is the literal complement-closure; exact.
   - x != ANY and range ALL have *no* sound MIN/MAX or NOT IN form:
       - the paper's [x != ANY -> x NOT IN] states the wrong condition
         entirely: NOT IN demands every item differ, != ANY only some;
       - the paper's [x op ALL -> x op MIN/MAX] breaks on an empty inner
         (ALL is vacuously True, but MIN/MAX of nothing is NULL, which
         rejects) and on NULL items (ALL goes Unknown and rejects, while
         MIN/MAX silently ignore the NULL).
     Both get the COUNT form above instead, provided inlining [x] into
     the subquery cannot capture its alias.  For != ANY it is exact with
     NULLs anywhere: the count is positive exactly when some item makes
     [x != item] True, i.e. when != ANY is True, and WHERE (no NOT or OR
     in this dialect) rejects False and Unknown alike.  For range ALL it
     is exact only when [x] and the item can never be NULL: a NULL item
     makes ALL Unknown but drops out of the violation count.  When
     [nullable] cannot prove that, or the alias would be captured, the
     rewrite refuses ([Program.Refused]) and callers fall back to nested
     iteration: a refusal, never a wrong answer.  [paper:true]
     reproduces the published rules verbatim instead (the paper itself
     concedes its ANY/ALL rules are "logically (but not necessarily
     semantically) equivalent"), for the ablation suites.
   - COUNT(selitems) vs COUNT(star): the paper builds COUNT(selitems); we
     build COUNT(star) because COUNT over a nullable item would miss rows
     whose item is NULL, and EXISTS must count them.  (NEST-JA2 converts
     COUNT(star) to COUNT(join column) when it builds the temp table, per
     §5.2.1.)
   - x = ALL Q has no rewrite in the paper and none here.
   - x <=> ANY/ALL Q (null-safe quantified comparison) is refused: no
     transformation target in this subset. *)

open Sql.Ast

let single_item (sub : query) =
  match sub.select with
  | [ Sel_col c ] -> c
  | _ ->
      Program.refuse "ANY/ALL subquery must select a single plain column"

(* Table aliases bound anywhere in [q]'s FROM tree.  Used for the capture
   check: a scalar inlined into [q]'s WHERE clause must not mention any of
   these, or it would re-resolve against the subquery's own bindings. *)
let rec bound_aliases (q : query) : string list =
  List.map from_alias q.from @ List.concat_map bound_aliases (subqueries q)

(* The conservative default: every column may be NULL, so the guarded
   COUNT forms are refused unless the caller supplies catalog knowledge. *)
let default_nullable ~rel:_ (_ : string) = true

let col_nullable ~nullable ~(env : (string * string) list) (c : col_ref) =
  match c.table with
  | None -> true (* unresolved reference: stay conservative *)
  | Some alias -> (
      match List.assoc_opt alias env with
      | Some rel -> nullable ~rel c.column
      | None -> true)

let scalar_nullable ~nullable ~env = function
  | Lit v -> Relalg.Value.is_null v
  | Col c -> col_nullable ~nullable ~env c

let local_env (q : query) = List.map (fun f -> (from_alias f, f.rel)) q.from

(* Inlining [x] into [sub] is well-scoped only when [x]'s alias is not
   re-bound inside [sub]. *)
let check_capture (x : scalar) (sub : query) : unit =
  match x with
  | Col { table = Some a; _ } when List.mem a (bound_aliases sub) ->
      Program.refuse
        "the left side's table alias is bound inside the subquery; \
            inlining it would capture the wrong binding"
  | Col { table = None; _ } ->
      Program.refuse
        "unqualified left side: cannot prove the inlined comparison \
            would not be captured by the subquery's FROM clause"
  | Col _ | Lit _ -> ()

(* Shared guard for every rewrite that inlines [x op item] into [sub]'s
   WHERE clause and compares the resulting COUNT against 0 where a NULL
   would change the answer (range ALL here and Nest_g's NOT IN extension):
   two-valued only when neither side of the added comparison can be NULL,
   and well-scoped by [check_capture]. *)
let check_count_form ~nullable ~scope (x : scalar) (sub : query)
    (item : col_ref) : unit =
  if scalar_nullable ~nullable ~env:scope x then
    Program.refuse
      "the left side of the quantified comparison may be NULL; the \
          COUNT form would silently accept what SQL rejects";
  if col_nullable ~nullable ~env:(local_env sub @ scope) item then
    Program.refuse
      "the subquery item may be NULL; the COUNT form would drop NULL \
          items that SQL's quantifier semantics must see";
  check_capture x sub

(* [x op ANY Q] <=> 0 < COUNT of satisfying items; [x op ALL Q] <=> 0 =
   COUNT of violating items.  Caller has already run its guard. *)
let quant_to_count (x : scalar) (op : cmp) (quantifier : quantifier)
    (sub : query) : predicate =
  let item = single_item sub in
  let count_def op' =
    {
      sub with
      select = [ Sel_agg Count_star ];
      where = sub.where @ [ Cmp (x, op', Col item) ];
      distinct = false;
    }
  in
  match quantifier with
  | Any -> Cmp_subq (Lit (Relalg.Value.Int 0), Lt, count_def op)
  | All -> Cmp_subq (Lit (Relalg.Value.Int 0), Eq, count_def (negate_cmp op))

let rewrite_predicate ?(paper = false) ?(nullable = default_nullable)
    ?(scope = []) (p : predicate) : predicate =
  match p with
  | Exists sub ->
      Cmp_subq
        ( Lit (Relalg.Value.Int 0),
          Lt,
          { sub with select = [ Sel_agg Count_star ]; distinct = false } )
  | Not_exists sub ->
      Cmp_subq
        ( Lit (Relalg.Value.Int 0),
          Eq,
          { sub with select = [ Sel_agg Count_star ]; distinct = false } )
  | Quant (x, Eq, Any, sub) -> In_subq (x, sub)
  | Quant (x, Ne, Any, sub) ->
      if paper then Not_in_subq (x, sub)
        (* the paper's rule, reproduced verbatim: wrong whenever the inner
           has two or more distinct values (see header) *)
      else begin
        check_capture x sub;
        quant_to_count x Ne Any sub
      end
  | Quant (x, Ne, All, sub) -> Not_in_subq (x, sub)
  | Quant (x, ((Lt | Le) as op), Any, sub) ->
      Cmp_subq (x, op, { sub with select = [ Sel_agg (Max (single_item sub)) ] })
  | Quant (x, ((Gt | Ge) as op), Any, sub) ->
      Cmp_subq (x, op, { sub with select = [ Sel_agg (Min (single_item sub)) ] })
  | Quant (x, ((Lt | Le | Gt | Ge) as op), All, sub) ->
      if paper then
        (* §8 verbatim: < ALL -> MIN, > ALL -> MAX; breaks on empty or
           NULL-bearing inners (see header) *)
        let agg =
          match op with
          | Lt | Le -> Min (single_item sub)
          | Gt | Ge -> Max (single_item sub)
          | Eq | Ne | Eq_null -> assert false
        in
        Cmp_subq (x, op, { sub with select = [ Sel_agg agg ] })
      else begin
        check_count_form ~nullable ~scope x sub (single_item sub);
        quant_to_count x op All sub
      end
  | Quant (_, Eq, All, _) ->
      Program.refuse "x = ALL (...) has no §8 transformation"
  | Quant (_, Eq_null, _, _) ->
      Program.refuse "<=> has no quantified transformation"
  | Cmp _ | Cmp_outer _ | Cmp_subq _ | In_subq _ | Not_in_subq _ -> p

(* Apply the rewrites at every nesting level, bottom-up, threading the
   alias -> relation environment so the nullability guards can resolve
   columns bound by enclosing blocks. *)
let rec rewrite_query ?paper ?nullable ?(scope = []) (q : query) : query =
  let scope' = local_env q @ scope in
  let sub s = rewrite_query ?paper ?nullable ~scope:scope' s in
  let where =
    List.map
      (fun p ->
        let p =
          match p with
          | Cmp_subq (s, op, q') -> Cmp_subq (s, op, sub q')
          | In_subq (s, q') -> In_subq (s, sub q')
          | Not_in_subq (s, q') -> Not_in_subq (s, sub q')
          | Exists q' -> Exists (sub q')
          | Not_exists q' -> Not_exists (sub q')
          | Quant (s, op, qf, q') -> Quant (s, op, qf, sub q')
          | (Cmp _ | Cmp_outer _) as p -> p
        in
        rewrite_predicate ?paper ?nullable ~scope:scope' p)
      q.where
  in
  { q with where }

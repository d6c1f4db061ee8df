#!/bin/sh
# Semantic mutation check.  Copies the tree with `git archive` (the
# working tree's tracked and staged files, through `git stash create`) to
# a temporary directory, builds it once, then applies each mutant below in
# turn, runs `dune runtest` (and `make fuzz-smoke` where the mutant lists
# `fuzz`), prints which of them killed it or "SURVIVED", and restores the
# file.  The working tree is never edited.
#
# Usage, from the repo root: sh scripts/mutants.sh [NAME...]
# (no names: every mutant).  About 35 s per mutant, a minute with `fuzz`;
# the copy lives under ${TMPDIR:-/tmp} and is removed on exit.  Exits
# non-zero when a mutant survives, does not build, or no longer applies.
#
# A mutant is `mutant NAME FILE CHECKS OLD NEW`: OLD must occur exactly
# once in FILE and is replaced by NEW; CHECKS is `test` or `test,fuzz`.
set -eu

root=$(pwd)
[ -f "$root/dune-project" ] || { echo "mutants: run from the repo root" >&2; exit 2; }
work=$(mktemp -d "${TMPDIR:-/tmp}/nestopt_mutants_XXXXXX")
trap 'rm -rf "$work"' EXIT
rev=$(git stash create)
git archive "${rev:-HEAD}" | tar -x -C "$work"
cd "$work"
dune build 2>/dev/null || { echo "mutants: the unmutated tree does not build" >&2; exit 2; }

selected="$*"
failed=0

mutant() {
  name=$1 file=$2 checks=$3 old=$4 new=$5
  if [ -n "$selected" ]; then
    case " $selected " in *" $name "*) ;; *) return 0 ;; esac
  fi
  cp "$file" "$file.orig"
  if ! python3 -c '
import sys
path, old, new = sys.argv[1:]
text = open(path).read()
if text.count(old) != 1:
    sys.exit(1)
open(path, "w").write(text.replace(old, new))
' "$file" "$old" "$new"; then
    echo "$name: STALE (the original text is not in $file exactly once)"
    failed=1
  elif ! dune build 2>/dev/null; then
    echo "$name: DOES NOT BUILD"
    failed=1
  else
    killers=
    dune runtest >/dev/null 2>&1 || killers="dune runtest"
    case ",$checks," in
    *,fuzz,*)
      make fuzz-smoke >/dev/null 2>&1 || killers="${killers:+$killers, }make fuzz-smoke" ;;
    esac
    if [ -n "$killers" ]; then
      echo "$name: killed by $killers"
    else
      echo "$name: SURVIVED"
      failed=1
    fi
  fi
  mv "$file.orig" "$file"
}

# --- SQL's NULL rules in the shared evaluator --------------------------

# x op ALL S with an Unknown comparison read as True: the MIN/MAX reading
# §8 warns about.
mutant quant_all_unknown_true lib/exec/eval.ml test,fuzz \
'  | All -> Truth.conjunction (List.map (fun v -> cmp_values op x v) vs)' \
'  | All ->
      Truth.conjunction
        (List.map
           (fun v ->
             match cmp_values op x v with Truth.Unknown -> Truth.True | t -> t)
           vs)'

# x IN S with an Unknown comparison read as False, so x NOT IN (..., NULL)
# keeps the row.
mutant in_unknown_false lib/exec/eval.ml test,fuzz \
'  Truth.disjunction (List.map (fun v -> cmp_values Eq x v) vs)' \
'  Truth.disjunction
    (List.map
       (fun v ->
         match cmp_values Eq x v with Truth.Unknown -> Truth.False | t -> t)
       vs)'

# NULL = NULL is True.
mutant null_eq_null lib/exec/eval.ml test,fuzz \
'      if Value.is_null a || Value.is_null b then Truth.Unknown' \
'      if Value.is_null a && Value.is_null b then Truth.True
      else if Value.is_null a || Value.is_null b then Truth.Unknown'

# --- the plan checker's own rules ----------------------------------------

# NEST-JA2 keeps COUNT(*) over the preserving join, §5.2.1's bug; the
# rewrite verifier (NQ905) refuses the program before any plan exists.
mutant ja2_count_star lib/optimizer/nest_ja2.ml test,fuzz \
'        Count counted )' \
'        (match shape.agg with Count_star -> Count_star | _ -> Count counted) )'

# NEST-JA2's outer join compares TEMP1's key with TEMP2's last column, a
# DATE under a COUNT(SHIPDATE); the rewrite verifier (NQ902) refuses it.
mutant ja2_join_wrong_column lib/optimizer/nest_ja2.ml test,fuzz \
'               Col (temp2_col c.inner)))' \
'               Col (temp2_col (List.nth temp2_cols (List.length temp2_cols - 1)))))'

# NQ112: the planner lowers every COUNT(col) as COUNT(*), so NEST-JA2's
# count over the padded column counts the padding.
mutant plan_count_star lib/optimizer/planner.ml test,fuzz \
'  let state =
    if aggs <> [] || q.group_by <> [] then begin' \
'  let aggs =
    List.map
      (fun (a : Exec.Plan.agg_item) ->
        match a.fn with Count _ -> { a with fn = Count_star } | _ -> a)
      aggs
  in
  let state =
    if aggs <> [] || q.group_by <> [] then begin'

# NQ111: every join condition compares its left column with the right
# input'"'"'s last column (SUPPLY.SHIPDATE, a DATE, against an INT key).
mutant join_last_right_column lib/optimizer/planner.ml test,fuzz \
'  let oriented = List.map (orient_cond ~alias) conds in' \
'  let oriented =
    let last = Schema.column right.schema (Schema.arity right.schema - 1) in
    List.map
      (fun (lc, op, _) -> (lc, op, { table = Some last.rel; column = last.name }))
      (List.map (orient_cond ~alias) conds)
  in'

# --- sort contracts (no checker rule: results catch them) ---------------

# A merge join's left input sorted on its first column, not the join key.
mutant merge_left_sort_key lib/optimizer/planner.ml test \
'        if left_sorted then left.node else Exec.Plan.Sort (left_key, left.node)' \
'        if left_sorted then left.node
        else
          let first = Relalg.Schema.column left.schema 0 in
          Exec.Plan.Sort
            ( [ { table = Some first.rel; column = first.name } ],
              left.node )'

# A sorted GROUP BY over input sorted on every non-key column, then the
# keys.
mutant group_sort_nonkey lib/optimizer/planner.ml test \
'            else Exec.Plan.Sort (q.group_by, state.node)' \
'            else
              let key (c : Relalg.Schema.column) =
                List.mem { table = Some c.rel; column = c.name } q.group_by
              in
              Exec.Plan.Sort
                ( List.filter_map
                    (fun (c : Relalg.Schema.column) ->
                      if key c then None
                      else Some { table = Some c.rel; column = c.name })
                    (Relalg.Schema.columns state.schema)
                  @ q.group_by,
                  state.node )'

# A sorted GROUP BY over input sorted on its first column, then the keys:
# the first column is a key on most planned inputs, where the order is
# still right.
mutant group_sort_key lib/optimizer/planner.ml test \
'            else Exec.Plan.Sort (q.group_by, state.node)' \
'            else
              let first = Relalg.Schema.column state.schema 0 in
              Exec.Plan.Sort
                ( { table = Some first.rel; column = first.name } :: q.group_by,
                  state.node )'

# --- the stored nested-loop inner (Hybrid) --------------------------------

# The restricted table is rescanned in place but its restriction is
# dropped, not moved into the join's residual.
mutant stored_inner_drops_restriction lib/optimizer/planner.ml test,fuzz \
'        Some (stored, fs)' \
'        Some (stored, List.filter (fun _ -> false) fs)'

# --- pipelined temps (Hybrid) ---------------------------------------------

# A temp two FROM items read (a keyed TEMP2's TEMP1) is pipelined too:
# each reader re-runs its plan, so the rows stay right and only the plans
# and the page I/O show it.
mutant pipeline_multi_reader lib/optimizer/planner.ml test,fuzz \
'  | Hybrid, [ reader ] ->' \
'  | Hybrid, reader :: _ ->'

# A pipelined temp's plan is read in place without the [Rename] to the
# temp's name, so its reader sees the source tables' column names.
mutant pipeline_drops_rename lib/optimizer/planner.ml test,fuzz \
'    | Some plan -> Exec.Plan.Rename (alias, plan)' \
'    | Some plan -> plan'

exit "$failed"

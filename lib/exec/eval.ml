(* Shared SQL evaluation semantics: comparisons, IN/EXISTS/ANY/ALL under
   three-valued logic, and aggregate functions.

   These are the semantics the paper calls "nested iteration semantics" and
   treats as ground truth; both the reference evaluator and the physical
   operators delegate here so that a disagreement between the two executors
   can only come from plan structure, never from divergent scalar rules. *)

module Value = Relalg.Value
module Truth = Relalg.Truth
open Sql.Ast

(* A query that is well-formed but cannot be evaluated on this data: a
   scalar subquery returning several rows, a multi-column value subquery. *)
exception Runtime_error of string

(* SQL comparison: Unknown if either side is NULL — except the null-safe
   [<=>], which is two-valued (NULL <=> NULL is True; NULL <=> v is False).
   [Value.compare] already treats NULL as equal to itself only. *)
let cmp_values (op : cmp) (a : Value.t) (b : Value.t) : Truth.t =
  match op with
  | Eq_null -> Truth.of_bool (Value.compare a b = 0)
  | Eq | Ne | Lt | Le | Gt | Ge ->
      if Value.is_null a || Value.is_null b then Truth.Unknown
      else
        let c = Value.compare a b in
        Truth.of_bool
          (match op with
          | Eq -> c = 0
          | Ne -> c <> 0
          | Lt -> c < 0
          | Le -> c <= 0
          | Gt -> c > 0
          | Ge -> c >= 0
          | Eq_null -> assert false)

(* [x IN vs] with SQL semantics: True if some member matches, Unknown if no
   member matches but some comparison was Unknown (NULLs), else False. *)
let in_values (x : Value.t) (vs : Value.t list) : Truth.t =
  Truth.disjunction (List.map (fun v -> cmp_values Eq x v) vs)

(* [x op ANY vs] / [x op ALL vs]: existential / universal closure of the
   comparison; ANY over the empty list is False, ALL over it is True. *)
let quant_values (op : cmp) (quantifier : quantifier) (x : Value.t)
    (vs : Value.t list) : Truth.t =
  match quantifier with
  | Any -> Truth.disjunction (List.map (fun v -> cmp_values op x v) vs)
  | All -> Truth.conjunction (List.map (fun v -> cmp_values op x v) vs)

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

(* SQL aggregates ignore NULLs; every aggregate except COUNT returns NULL on
   an empty (or all-NULL) input.  The paper leans on both rules: MAX({}) =
   NULL makes the non-COUNT algorithms drop unmatched outer tuples, while
   COUNT({}) = 0 is exactly the value Kim's NEST-JA loses. *)
let aggregate_values (a : agg) (column : Value.t list) : Value.t =
  let non_null = List.filter (fun v -> not (Value.is_null v)) column in
  match a with
  | Count_star -> Value.Int (List.length column)
  | Count _ -> Value.Int (List.length non_null)
  | Max _ ->
      List.fold_left
        (fun acc v ->
          if Value.is_null acc || Value.compare v acc > 0 then v else acc)
        Value.Null non_null
  | Min _ ->
      List.fold_left
        (fun acc v ->
          if Value.is_null acc || Value.compare v acc < 0 then v else acc)
        Value.Null non_null
  | Sum _ -> (
      match non_null with
      | [] -> Value.Null
      | first :: rest -> List.fold_left Value.add first rest)
  | Avg _ -> (
      match non_null with
      | [] -> Value.Null
      | vs ->
          let total =
            List.fold_left
              (fun acc v ->
                match Value.to_float v with
                | Some f -> acc +. f
                | None -> invalid_arg "AVG over non-numeric value")
              0. vs
          in
          Value.Float (total /. float_of_int (List.length vs)))

(* Incremental accumulators mirroring [aggregate_values]: COUNT(col)
   ignores NULLs (COUNT-star does not); MAX/MIN/SUM/AVG ignore NULLs and
   yield NULL on empty/all-NULL input.  Shared by both the tuple and the
   vectorized group/aggregate operators so the engines cannot drift. *)
type agg_state =
  | S_count of { mutable n : int; star : bool }
  | S_max of { mutable v : Value.t }
  | S_min of { mutable v : Value.t }
  | S_sum of { mutable v : Value.t }
  | S_avg of { mutable total : float; mutable n : int }

let fresh_state (fn : agg) =
  match fn with
  | Count_star -> S_count { n = 0; star = true }
  | Count _ -> S_count { n = 0; star = false }
  | Max _ -> S_max { v = Value.Null }
  | Min _ -> S_min { v = Value.Null }
  | Sum _ -> S_sum { v = Value.Null }
  | Avg _ -> S_avg { total = 0.; n = 0 }

let update_state st (v : Value.t) =
  match st with
  | S_count c -> if c.star || not (Value.is_null v) then c.n <- c.n + 1
  | S_max m ->
      if
        (not (Value.is_null v))
        && (Value.is_null m.v || Value.compare v m.v > 0)
      then m.v <- v
  | S_min m ->
      if
        (not (Value.is_null v))
        && (Value.is_null m.v || Value.compare v m.v < 0)
      then m.v <- v
  | S_sum s ->
      if not (Value.is_null v) then
        s.v <- (if Value.is_null s.v then v else Value.add s.v v)
  | S_avg a ->
      if not (Value.is_null v) then (
        match Value.to_float v with
        | Some f ->
            a.total <- a.total +. f;
            a.n <- a.n + 1
        | None -> invalid_arg "AVG over non-numeric value")

let finish_state = function
  | S_count c -> Value.Int c.n
  | S_max m -> m.v
  | S_min m -> m.v
  | S_sum s -> s.v
  | S_avg a ->
      if a.n = 0 then Value.Null else Value.Float (a.total /. float_of_int a.n)

(* ------------------------------------------------------------------ *)
(* Scalars under an environment                                        *)
(* ------------------------------------------------------------------ *)

let scalar (env : Env.t) = function
  | Col c -> Env.lookup env c
  | Lit v -> v

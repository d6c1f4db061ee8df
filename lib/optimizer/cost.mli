(** The paper's analytic page-I/O cost model (§4 and §7).

    Kim's notation: Pk pages, Nk tuples, f(i) the simple-predicate
    selectivity on Ri, B buffer pages; sorting costs 2·P·log_{B-1}(P).
    [rounding] selects the log convention: Kim's Figure-1 arithmetic uses
    ceilinged logs ([Ceil]), the paper's §7.4 "about 475" uses real-valued
    logs ([Exact], the default).

    These closed forms rank strategies inside {!Planner.lower}, and
    {!Estimate.analyze} re-derives them per plan operator for EXPLAIN.  The
    statistics and B-tree formulas both use live in {!Estimate}; EXPLAIN
    still departs from the ranking on two inputs, a filtered nested-loop
    inner's rescan pages and a left-outer join's row floor (see
    {!Estimate}). *)

type rounding = Exact | Ceil

(** [sort_cost ~b p] = 2·P·log_{B-1}(P); 0 for P ≤ 1. *)
val sort_cost : ?rounding:rounding -> b:int -> float -> float

(** Correlated nested iteration: Pi + f·Ni·Pj. *)
val nested_iteration : pi:float -> pj:float -> fi_ni:float -> float

(** Type-N: inner evaluated once into a Px-page list, probed per outer
    tuple: Pi + Pj + f·Ni·Px. *)
val nested_iteration_type_n :
  pi:float -> pj:float -> fi_ni:float -> px:float -> float

(** Type-A: evaluate inner once, scan outer: Pi + Pj. *)
val type_a : pi:float -> pj:float -> float

(** NEST-N-J followed by a merge join: optional sorts plus a merging scan. *)
val nest_nj_merge :
  ?rounding:rounding ->
  ?sort_outer:bool ->
  ?sort_inner:bool ->
  b:int ->
  pi:float ->
  pj:float ->
  unit ->
  float

(** Kim's (pre-fix) NEST-JA: sort/group Rj into Rt, merge-join with Ri. *)
val kim_nest_ja :
  ?rounding:rounding -> b:int -> pi:float -> pj:float -> pt:float -> unit -> float

(** §7 parameters: the temp-table page counts of the NEST-JA2 pipeline. *)
type ja2_params = {
  pi : float;  (** outer relation Ri *)
  pj : float;  (** inner relation Rj *)
  pt2 : float;  (** DISTINCT projection of Ri's join column *)
  pt3 : float;  (** restriction+projection of Rj *)
  pt4 : float;  (** join result before GROUP BY *)
  pt : float;  (** final aggregate temp Rt *)
  b : int;
  fi_ni : float;  (** qualifying outer tuples *)
  nt2 : float;  (** tuples of Rt2 (thrashing nested-loop case) *)
}

(** §7.2 temp creation: nested loops, Rt3 fits in B-1 pages. *)
val ja2_temp_nl_fits : ja2_params -> float

(** §7.2 temp creation: nested loops, Rt3 re-read per Rt2 tuple. *)
val ja2_temp_nl_thrash : ja2_params -> float

(** §7.4 closed-form all-merge total, exactly as printed. *)
val ja2_total_merge : ?rounding:rounding -> ja2_params -> float

type ja2_strategy = {
  temp_method : string;
  final_method : string;
  cost : float;
}

(** The four §7.4 strategy combinations (temp × final join method). *)
val ja2_strategies : ?rounding:rounding -> ja2_params -> ja2_strategy list

(** {1 Beyond the paper: blended I/O + CPU costing}

    Pure page counting cannot distinguish a hash operator from a nested
    loop whose inner fits the pool; the hybrid planner charges a small
    weight in page-I/O equivalents per tuple operation on top of page
    traffic.  All of these are additions over the paper's §4/§7 model,
    which remains untouched above. *)

(** [blended ~io ~tuples] = io + weight·tuples. *)
val blended : io:float -> tuples:float -> float

(** In-memory hash join: both inputs scanned once, Nj builds + Ni probes. *)
val hash_join_blended : pi:float -> pj:float -> ni:float -> nj:float -> float

(** Sort-merge join with optional external sorts and their n·log n CPU. *)
val merge_join_blended :
  ?rounding:rounding ->
  b:int ->
  sort_left:bool ->
  sort_right:bool ->
  pi:float ->
  pj:float ->
  ni:float ->
  nj:float ->
  unit ->
  float

(** Tuple nested loops: the paper's page traffic plus Ni·Nj comparisons. *)
val nl_join_blended : io:float -> ni:float -> nj:float -> float

(** Hash aggregation / dedup: one scan, one table operation per tuple. *)
val hash_agg_blended : pi:float -> ni:float -> float

(** Sort-based aggregation / dedup over an unsorted input. *)
val sort_agg_blended :
  ?rounding:rounding -> b:int -> pi:float -> ni:float -> unit -> float

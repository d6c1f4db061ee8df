(* EXPLAIN / EXPLAIN ANALYZE rendering and per-operator instrumentation.

   Rendering is annotation-driven: the caller supplies lookup functions for
   planner estimates and for runtime metrics, keyed by plan node (physical
   identity — a plan's subterms are built once, so [==] identifies an
   operator).  The estimate side lives in [Optimizer.Estimate]; the metrics
   side is produced here by an observer threaded through [Plan.run].

   The observer also doubles as the trace emitter: with a sink installed it
   writes one JSON line per operator open / next-batch / close, the offline
   analogue of the rendered tree (schema in docs/EXPLAIN.md). *)

module Pager = Storage.Pager

type est = { est_rows : float; est_cost : float }

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

(* Cumulative counters grow monotonically, so flushing a batch line every
   [trace_batch] next calls bounds trace volume at ~1/256 of row volume. *)
let trace_batch = 256

type session = {
  pager : Pager.t;
  trace : (string -> unit) option;
  mutable entries : (Plan.node * Metrics.t * int) list; (* keyed by [==] *)
  mutable fresh_id : int;
}

let session ?trace pager = { pager; trace; entries = []; fresh_id = 0 }

let entry s node = List.find_opt (fun (n, _, _) -> n == node) s.entries

let metrics s node = Option.map (fun (_, m, _) -> m) (entry s node)

let ms seconds = Json.Float (seconds *. 1e3)

(* One trace line: [{"ev":EV,"id":ID,...fields}]. *)
let emit s ev id fields =
  match s.trace with
  | Some out ->
      out
        (Json.to_string
           (Json.Obj (("ev", Json.Str ev) :: ("id", Json.Int id) :: fields)))
  | None -> ()

(* What the row and the batch observer share: register [node]'s
   metrics (a node an [Apply] re-opens keeps one record and one trace id
   across its loops), time its [build] — one open: the plan was compiled
   before — emit its "open" line, and return
   the built operator with a wrapper for its pull function.  The wrapper
   times each
   pull, attributes its page traffic, and emits "close" at the first
   exhausted pull; [produced] accounts for one non-empty pull and says
   whether it deserves a "batch" line. *)
let instrument s node build ~produced =
  let m, id =
    match entry s node with
    | Some (_, m, id) -> (m, id)
    | None ->
        let m = Metrics.create () and id = s.fresh_id in
        s.entries <- (node, m, id) :: s.entries;
        s.fresh_id <- id + 1;
        (m, id)
  in
  m.Metrics.loops <- m.Metrics.loops + 1;
  let before = Pager.snapshot s.pager in
  let t0 = Unix.gettimeofday () in
  let op = build () in
  m.Metrics.build_s <- m.Metrics.build_s +. (Unix.gettimeofday () -. t0);
  Metrics.add_io m (Pager.diff_since s.pager before);
  emit s "open" id
    [ ("op", Json.Str (Plan.label node)); ("build_ms", ms m.Metrics.build_s) ];
  let counts () =
    [
      ("rows", Json.Int m.Metrics.rows);
      ("next_calls", Json.Int m.Metrics.next_calls);
    ]
  in
  let closed = ref false in
  let pull next () =
    let before = Pager.snapshot s.pager in
    let t0 = Unix.gettimeofday () in
    let r = next () in
    m.Metrics.next_s <- m.Metrics.next_s +. (Unix.gettimeofday () -. t0);
    Metrics.add_io m (Pager.diff_since s.pager before);
    m.Metrics.next_calls <- m.Metrics.next_calls + 1;
    (match r with
    | Some x -> if produced m x then emit s "batch" id (counts ())
    | None ->
        if not !closed then begin
          closed := true;
          emit s "close" id
            (counts ()
            @ [
                ("ms", ms (Metrics.total_s m));
                ("logical_reads", Json.Int m.Metrics.logical_reads);
                ("physical_reads", Json.Int m.Metrics.physical_reads);
                ("physical_writes", Json.Int m.Metrics.physical_writes);
              ])
        end);
    r
  in
  (op, pull)

(* A row operator's pulls are rows: a "batch" line every [trace_batch]
   [next] calls.  A batch operator's are batches: one timer pair and one
   pager snapshot per batch, not per row — the amortization that keeps
   instrumentation overhead from dwarfing the batch loops ([rows] still
   counts individual selected rows). *)
let observer (s : session) : Plan.observer =
  {
    rows =
      (fun node build ->
        let it, pull =
          instrument s node build ~produced:(fun m _ ->
              m.Metrics.rows <- m.Metrics.rows + 1;
              m.Metrics.next_calls mod trace_batch = 0)
        in
        { it with Iterator.next = pull it.Iterator.next });
    batches =
      (fun node build ->
        let v, pull =
          instrument s node build ~produced:(fun m b ->
              m.Metrics.rows <- m.Metrics.rows + Batch.live b;
              m.Metrics.batches <- m.Metrics.batches + 1;
              true)
        in
        { v with Vec.next_batch = pull v.Vec.next_batch });
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let no_est : Plan.node -> est option = fun _ -> None

(* Metrics of the children that were instrumented (a nested-loop join's
   stored inner is driven by the join itself and has none). *)
let child_metrics lookup node =
  List.filter_map lookup (Plan.children node)

let actual_suffix lookup node =
  match lookup node with
  | None -> "  (actual: -)"
  | Some m ->
      let l, pr, pw = Metrics.self_io m ~children:(child_metrics lookup node) in
      let batches =
        if m.Metrics.batches = 0 then ""
        else Printf.sprintf " batches=%d" m.Metrics.batches
      in
      let loops =
        if m.Metrics.loops <= 1 then ""
        else Printf.sprintf " loops=%d" m.Metrics.loops
      in
      Printf.sprintf
        "  (actual: rows=%d next=%d rows/call=%.1f%s%s time=%.2fms io=%d/%d/%d"
        m.Metrics.rows m.Metrics.next_calls (Metrics.rows_per_call m) batches
        loops
        (Metrics.total_s m *. 1e3)
        l pr pw
      ^ ")"

let est_suffix estimate node =
  match estimate node with
  | None -> ""
  | Some e -> Printf.sprintf "  (cost=%.1f rows=%.0f)" e.est_cost e.est_rows

let render ?(estimate = no_est) ?metrics ?(indent = 0) node =
  let buf = Buffer.create 256 in
  let rec go indent node =
    Buffer.add_string buf (String.make (indent * 2) ' ');
    Buffer.add_string buf (Plan.label node);
    Buffer.add_string buf (est_suffix estimate node);
    (match metrics with
    | None -> ()
    | Some lookup -> Buffer.add_string buf (actual_suffix lookup node));
    Buffer.add_char buf '\n';
    List.iter (go (indent + 1)) (Plan.children node)
  in
  go indent node;
  Buffer.contents buf

let render_json ?(estimate = no_est) ?metrics node =
  let rec go node =
    let est =
      match estimate node with
      | None -> []
      | Some e ->
          [
            ("est_cost", Json.Float e.est_cost);
            ("est_rows", Json.Float e.est_rows);
          ]
    in
    let actual =
      match Option.map (fun lookup -> (lookup, lookup node)) metrics with
      | None | Some (_, None) -> []
      | Some (lookup, Some m) ->
          let l, pr, pw =
            Metrics.self_io m ~children:(child_metrics lookup node)
          in
          [
            ( "actual",
              Json.Obj
                [
                  ("rows", Json.Int m.Metrics.rows);
                  ("next_calls", Json.Int m.Metrics.next_calls);
                  ("rows_per_call", Json.Float (Metrics.rows_per_call m));
                  ("batches", Json.Int m.Metrics.batches);
                  ("loops", Json.Int m.Metrics.loops);
                  ("build_ms", ms m.Metrics.build_s);
                  ("total_ms", ms (Metrics.total_s m));
                  ("logical_reads", Json.Int m.Metrics.logical_reads);
                  ("physical_reads", Json.Int m.Metrics.physical_reads);
                  ("physical_writes", Json.Int m.Metrics.physical_writes);
                  ("self_logical_reads", Json.Int l);
                  ("self_physical_reads", Json.Int pr);
                  ("self_physical_writes", Json.Int pw);
                ] );
          ]
    in
    Json.Obj
      ((("op", Json.Str (Plan.label node)) :: est)
      @ actual
      @ [ ("children", Json.List (List.map go (Plan.children node))) ])
  in
  go node

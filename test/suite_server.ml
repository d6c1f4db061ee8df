(* The server layer: protocol request parsing, the shared LRU plan cache
   (hit/miss/eviction/invalidation accounting), the cached-plan ≡
   fresh-plan correctness property under the oracle comparator, end-to-end
   sessions through [Server.handle_line] (no sockets), a real concurrent
   Unix-socket run, and the CLI's strict flag validation. *)

module P = Server.Protocol
module Cache = Server.Plan_cache
module Value = Relalg.Value
module Relation = Relalg.Relation

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let q2 = Fixtures.count_bug_query
let q5 = Fixtures.max_quan_query
let count_bug_db () = Fixtures.count_bug_db ()

let parse_exn line =
  match P.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad JSON %S: %s" line e

let is_ok j = P.member "ok" j = Some (P.Bool true)

let str_member name j =
  match P.member name j with
  | Some (P.Str s) -> s
  | other -> Alcotest.failf "expected string field %S, got %s" name
               (match other with Some v -> P.to_string v | None -> "nothing")

let int_member name j =
  match P.member name j with
  | Some (P.Int i) -> i
  | other -> Alcotest.failf "expected int field %S, got %s" name
               (match other with Some v -> P.to_string v | None -> "nothing")

(* ------------------------------------------------------------------ *)
(* Protocol: request parsing (JSON itself is tested in Suite_json)     *)
(* ------------------------------------------------------------------ *)

let test_request_parsing () =
  (match P.request_of_line {|{"op": "query", "sql": "SELECT 1", "engine": "vectorized", "mode": "hybrid"}|} with
  | Ok (P.Query { sql; knobs }) ->
      Alcotest.(check string) "sql" "SELECT 1" sql;
      Alcotest.(check bool) "engine" true
        (knobs.P.engine = Some Exec.Plan.Vectorized);
      Alcotest.(check bool) "mode" true
        (knobs.P.mode = Some Optimizer.Planner.Hybrid)
  | Ok _ -> Alcotest.fail "wrong request"
  | Error e -> Alcotest.fail e);
  (* unknown knob values are errors, never silent defaults *)
  (match P.request_of_line {|{"op": "query", "sql": "x", "engine": "vectorised"}|} with
  | Error e ->
      Alcotest.(check bool) "names the field" true
        (Astring.String.is_infix ~affix:"engine" e)
  | Ok _ -> Alcotest.fail "typo engine accepted");
  (match P.request_of_line {|{"op": "query", "sql": "x", "mode": "fast"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "typo mode accepted");
  (match P.request_of_line {|{"op": "teleport"}|} with
  | Error e ->
      Alcotest.(check bool) "lists the verbs" true
        (Astring.String.is_infix ~affix:"prepare" e)
  | Ok _ -> Alcotest.fail "unknown op accepted");
  (* load: typed cells, NULLs, dates *)
  match
    P.request_of_line
      {|{"op": "load", "table": "T", "columns": [["A", "int"], ["D", "date"]], "rows": [[1, "1979-06-01"], [null, null]]}|}
  with
  | Ok (P.Load { table; columns; rows }) ->
      Alcotest.(check string) "table" "T" table;
      Alcotest.(check int) "columns" 2 (List.length columns);
      Alcotest.(check bool) "date cell" true
        (match rows with
        | [ [ Value.Int 1; Value.Date _ ]; [ Value.Null; Value.Null ] ] -> true
        | _ -> false)
  | Ok _ -> Alcotest.fail "wrong request"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Plan cache: LRU accounting                                          *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let db = count_bug_db () in
  let prep sql =
    match Core.prepare db sql with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let cache = Cache.create ~capacity:2 () in
  let p = prep q2 in
  Cache.add cache "a" p;
  Cache.add cache "b" p;
  Alcotest.(check bool) "a hits" true (Cache.find cache "a" <> None);
  (* b is now LRU; inserting c evicts it *)
  Cache.add cache "c" p;
  Alcotest.(check int) "still 2 entries" 2 (Cache.length cache);
  Alcotest.(check bool) "b evicted" true (Cache.find cache "b" = None);
  Alcotest.(check bool) "a survived" true (Cache.find cache "a" <> None);
  let c = Cache.counters cache in
  Alcotest.(check int) "hits" 2 c.Cache.hits;
  Alcotest.(check int) "misses" 1 c.Cache.misses;
  Alcotest.(check int) "evictions" 1 c.Cache.evictions;
  let epoch_before = Cache.epoch cache in
  Alcotest.(check int) "invalidate drops all" 2 (Cache.invalidate cache);
  Alcotest.(check int) "empty" 0 (Cache.length cache);
  Alcotest.(check int) "epoch bumped" (epoch_before + 1) (Cache.epoch cache);
  Alcotest.(check int) "invalidations" 2 (Cache.counters cache).Cache.invalidations

(* ------------------------------------------------------------------ *)
(* Cached plan ≡ fresh plan (the oracle comparator)                    *)
(* ------------------------------------------------------------------ *)

(* For random oracle cases, running a [Core.prepare]d statement twice must
   be result-identical to a fresh [Core.run] — across planner modes, under
   the NULL-aware comparator the differential oracle uses. *)
let test_cached_equals_fresh =
  QCheck2.Test.make ~name:"plan cache: cached ≡ fresh across modes"
    ~count:40
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let case = Oracle.Gen.case rng in
      let db = Oracle.Repro.build_db case in
      match Core.prepare db case.Oracle.Repro.sql with
      | Error _ -> QCheck2.assume_fail ()
      | Ok p ->
          List.for_all
            (fun mode ->
              let fresh = Core.run ~mode db case.Oracle.Repro.sql in
              let cached () = Core.run_prepared ~mode db p in
              let agree a b =
                match (a, b) with
                | Ok (ea : Core.execution), Ok (eb : Core.execution) ->
                    (ea.Core.via = Core.Via_transformed) = (eb.Core.via = Core.Via_transformed)
                    && Oracle.Matrix.results_agree ~q:p.Core.query
                         ~reference:ea.Core.result ~got:eb.Core.result
                | Error a, Error b -> a = b
                | _ -> false
              in
              (* twice: first forces the lazy transform, second reuses it *)
              agree fresh (cached ()) && agree fresh (cached ()))
            Optimizer.Planner.[ Paper1987; Hybrid ])

(* ------------------------------------------------------------------ *)
(* End-to-end sessions through handle_line (no sockets)                *)
(* ------------------------------------------------------------------ *)

let send server session line =
  let response, disposition = Server.handle_line server session line in
  (parse_exn response, disposition)

let send_ok server session line =
  let j, _ = send server session line in
  if not (is_ok j) then
    Alcotest.failf "request %S failed: %s" line (P.to_string j);
  j

let query_line ?(extra = "") sql =
  Printf.sprintf {|{"op": "query", "sql": %s%s}|} (P.to_string (P.Str sql)) extra

let test_server_prepare_execute () =
  let server = Server.create ~cache_capacity:8 (count_bug_db ()) in
  let s = Server.open_session server in
  (* prepare once: a cache miss; execute twice: two cache hits *)
  let j =
    send_ok server s
      (Printf.sprintf {|{"op": "prepare", "name": "q2", "sql": %s}|}
         (P.to_string (P.Str q2)))
  in
  Alcotest.(check string) "prepare misses" "miss" (str_member "cache" j);
  Alcotest.(check string) "classification" "type-JA"
    (str_member "classification" j);
  let e1 = send_ok server s {|{"op": "execute", "name": "q2"}|} in
  Alcotest.(check string) "first execute hits" "hit" (str_member "cache" e1);
  let e2 = send_ok server s {|{"op": "execute", "name": "q2"}|} in
  Alcotest.(check string) "second execute hits" "hit" (str_member "cache" e2);
  Alcotest.(check bool) "same rows" true
    (P.member "rows" e1 = P.member "rows" e2);
  (* the same statement via the query verb reuses the same cache entry *)
  let qj = send_ok server s (query_line q2) in
  Alcotest.(check string) "query hits too" "hit" (str_member "cache" qj);
  (* the engine knob is validated and ignored: same entry, same rows *)
  let vj = send_ok server s (query_line ~extra:{|, "engine": "vectorized"|} q2) in
  Alcotest.(check string) "engine knob hits" "hit" (str_member "cache" vj);
  Alcotest.(check bool) "same rows under the engine knob" true
    (P.member "rows" qj = P.member "rows" vj);
  let stats = send_ok server s {|{"op": "stats"}|} in
  let cache = Option.get (P.member "plan_cache" stats) in
  Alcotest.(check bool) "hits counted" true (int_member "hits" cache >= 3);
  Alcotest.(check int) "misses counted" 1 (int_member "misses" cache);
  let session = Option.get (P.member "session" stats) in
  Alcotest.(check int) "statements" 4 (int_member "statements" session);
  Alcotest.(check bool) "rows accounted" true (int_member "rows" session >= 4);
  (* close ends the conversation *)
  let _, disposition = send server s {|{"op": "close"}|} in
  Alcotest.(check bool) "close closes" true (disposition = `Close);
  Server.close_session server s

(* The strategy knob belongs to the request, not to the plan-cache key: a
   cached [Core.prepared] is the parse plus the NEST-G transform, which no
   strategy changes, so one statement under three strategies is one entry.
   Each response's strategy field must still report the path actually
   taken (not just the transformed/nested bool). *)
let test_server_strategy_not_cache_key () =
  let server = Server.create ~cache_capacity:8 (count_bug_db ()) in
  let s = Server.open_session server in
  let j = send_ok server s (query_line q2) in
  Alcotest.(check string) "auto run misses" "miss" (str_member "cache" j);
  Alcotest.(check string) "auto takes the rewrite" "transformed"
    (str_member "strategy" j);
  let n = send_ok server s (query_line ~extra:{|, "strategy": "nested"|} q2) in
  Alcotest.(check string) "nested run hits" "hit" (str_member "cache" n);
  Alcotest.(check string) "nested path reported" "nested_iteration"
    (str_member "strategy" n);
  let b = send_ok server s (query_line ~extra:{|, "strategy": "batched"|} q2) in
  Alcotest.(check string) "batched run hits" "hit" (str_member "cache" b);
  Alcotest.(check string) "batched path reported" "batched"
    (str_member "strategy" b);
  Alcotest.(check int) "all strategies agree on cardinality"
    (int_member "row_count" j)
    (int_member "row_count" b);
  Alcotest.(check int) "nested agrees too"
    (int_member "row_count" j)
    (int_member "row_count" n);
  (* a replay under the same strategy hits as well *)
  let b2 = send_ok server s (query_line ~extra:{|, "strategy": "batched"|} q2) in
  Alcotest.(check string) "batched replay hits" "hit" (str_member "cache" b2);
  Server.close_session server s

(* [explain] honours the strategy knob: under "nested" it shows the plan
   [query] with the same knobs runs, not the transformed program. *)
let test_server_explain_strategy () =
  let server = Server.create ~cache_capacity:8 (count_bug_db ()) in
  let s = Server.open_session server in
  let explain extra =
    str_member "text"
      (send_ok server s
         (Printf.sprintf {|{"op": "explain", "sql": %s%s}|}
            (P.to_string (P.Str q2)) extra))
  in
  let has affix text = Astring.String.is_infix ~affix text in
  let nested = explain {|, "strategy": "nested"|} in
  Alcotest.(check bool) "nested: Apply per row" true (has "Apply per row" nested);
  Alcotest.(check bool) "nested: no temps" false (has "TEMP#" nested);
  let auto = explain "" in
  Alcotest.(check bool) "auto: transformed" true
    (has "auto: transformed" auto && has "TEMP#" auto);
  Server.close_session server s

let test_server_load_invalidates () =
  let server = Server.create ~cache_capacity:8 (count_bug_db ()) in
  let s = Server.open_session server in
  let j = send_ok server s (query_line q2) in
  Alcotest.(check string) "first run misses" "miss" (str_member "cache" j);
  ignore
    (send_ok server s
       (Printf.sprintf {|{"op": "prepare", "name": "q2", "sql": %s}|}
          (P.to_string (P.Str q2))));
  (* replace both tables: every cached plan must be dropped *)
  let load =
    send_ok server s
      {|{"op": "load", "table": "PARTS", "columns": [["PNUM", "int"], ["QOH", "int"]], "rows": [[3, 0], [4, 1]]}|}
  in
  Alcotest.(check bool) "invalidated" true (int_member "invalidated" load >= 1);
  ignore
    (send_ok server s
       {|{"op": "load", "table": "SUPPLY", "columns": [["PNUM", "int"], ["QUAN", "int"], ["SHIPDATE", "date"]], "rows": [[4, 7, "1979-06-01"]]}|});
  (* the prepared statement re-analyzes against the new catalog: QOH=0
     matches COUNT()=0 for PNUM 3 (no supply rows), QOH=1 matches the one
     pre-1980 shipment of PNUM 4 *)
  let e = send_ok server s {|{"op": "execute", "name": "q2"}|} in
  Alcotest.(check bool) "re-prepared against new data" true
    (match P.member "rows" e with
    | Some (P.List [ P.List [ P.Int 3 ]; P.List [ P.Int 4 ] ])
    | Some (P.List [ P.List [ P.Int 4 ]; P.List [ P.Int 3 ] ]) ->
        true
    | _ -> false);
  Alcotest.(check string) "and was a miss" "miss" (str_member "cache" e);
  (* a fresh query agrees with the freshly planned answer *)
  let q = send_ok server s (query_line q2) in
  Alcotest.(check bool) "query after load agrees" true
    (P.member "rows" q = P.member "rows" e);
  Server.close_session server s

(* Regression: an index must not survive [load] pointing at the dropped
   heap.  Before this fix do_load dropped the table — deleting its B-trees
   — and redefined it without them, so a nested-strategy statement
   re-executed after load silently lost its index access path (and a plan
   cached against the old index inventory could be reused).  Now load
   rebuilds the indexes on the replacement heap and reports it, and
   sweeps the plan cache. *)
let test_server_index_survives_load () =
  let server = Server.create ~cache_capacity:8 (count_bug_db ()) in
  let s = Server.open_session server in
  let exists_q =
    "SELECT PNUM FROM PARTS WHERE EXISTS (SELECT QUAN FROM SUPPLY WHERE \
     SUPPLY.PNUM = PARTS.PNUM)"
  in
  (* CREATE INDEX arrives over the query verb *)
  let ci = send_ok server s (query_line "CREATE INDEX ON SUPPLY (PNUM)") in
  Alcotest.(check bool) "created" true
    (String.length (str_member "message" ci) > 0);
  let j =
    send_ok server s (query_line ~extra:{|, "strategy": "nested"|} exists_q)
  in
  Alcotest.(check int) "all three parts supplied" 3 (int_member "row_count" j);
  let load =
    send_ok server s
      {|{"op": "load", "table": "SUPPLY", "columns": [["PNUM", "int"], ["QUAN", "int"], ["SHIPDATE", "date"]], "rows": [[10, 1, "1979-01-01"]]}|}
  in
  Alcotest.(check int) "index rebuilt on the new heap" 1
    (int_member "indexes_rebuilt" load);
  (* the nested enumeration now probes the rebuilt tree: only PNUM 10 has
     supply rows; a stale index would still answer for 3 and 8 *)
  let j2 =
    send_ok server s (query_line ~extra:{|, "strategy": "nested"|} exists_q)
  in
  Alcotest.(check bool) "fresh data through a fresh index" true
    (P.member "rows" j2 = Some (P.List [ P.List [ P.Int 10 ] ]));
  (* re-creating the same index is idempotent, not an error *)
  let ci2 = send_ok server s (query_line "CREATE INDEX ON SUPPLY (PNUM)") in
  Alcotest.(check bool) "idempotent" true (str_member "message" ci2 <> "");
  Server.close_session server s

(* CREATE INDEX sweeps the plan cache: the key is the statement text
   alone, so a statement prepared before the index must miss afterwards
   and be re-planned against the new access path. *)
let test_server_create_index_invalidates () =
  let server = Server.create ~cache_capacity:8 (count_bug_db ()) in
  let s = Server.open_session server in
  let nested = {|, "strategy": "nested"|} in
  let j = send_ok server s (query_line ~extra:nested q2) in
  Alcotest.(check string) "first run misses" "miss" (str_member "cache" j);
  let j = send_ok server s (query_line ~extra:nested q2) in
  Alcotest.(check string) "replay hits" "hit" (str_member "cache" j);
  let ci = send_ok server s (query_line "CREATE INDEX ON SUPPLY (PNUM)") in
  Alcotest.(check int) "the entry was swept" 1 (int_member "invalidated" ci);
  let j2 = send_ok server s (query_line ~extra:nested q2) in
  Alcotest.(check string) "re-sent after CREATE INDEX misses" "miss"
    (str_member "cache" j2);
  Alcotest.(check bool) "same answer" true
    (P.member "rows" j = P.member "rows" j2);
  let explain =
    str_member "text"
      (send_ok server s
         (Printf.sprintf {|{"op": "explain", "sql": %s%s}|}
            (P.to_string (P.Str q2)) nested))
  in
  Alcotest.(check bool) "nested plan probes the new index" true
    (Astring.String.is_infix ~affix:"IndexScan SUPPLY" explain);
  Server.close_session server s

(* A NOT IN over NULL-free columns: [query] and [explain] under Auto see
   one NEST-G, so they name the same strategy — the guarded COUNT rewrite. *)
let test_server_not_in_query_explain_agree () =
  let server = Server.create ~cache_capacity:8 (count_bug_db ()) in
  let s = Server.open_session server in
  let not_in =
    "SELECT PNUM FROM PARTS WHERE QOH NOT IN (SELECT QUAN FROM SUPPLY WHERE \
     SUPPLY.PNUM = PARTS.PNUM)"
  in
  let q = send_ok server s (query_line not_in) in
  let explain =
    str_member "text"
      (send_ok server s
         (Printf.sprintf {|{"op": "explain", "sql": %s}|}
            (P.to_string (P.Str not_in))))
  in
  Alcotest.(check string) "query runs the rewrite" "transformed"
    (str_member "strategy" q);
  Alcotest.(check bool) "explain picks the same" true
    (String.starts_with ~prefix:"auto: transformed" explain);
  Server.close_session server s

let test_server_eviction_under_tiny_capacity () =
  let server = Server.create ~cache_capacity:1 (count_bug_db ()) in
  let s = Server.open_session server in
  ignore (send_ok server s (query_line q2));
  ignore (send_ok server s (query_line "SELECT PNUM FROM PARTS"));
  ignore (send_ok server s (query_line q2));
  let stats = send_ok server s {|{"op": "stats"}|} in
  let cache = Option.get (P.member "plan_cache" stats) in
  Alcotest.(check int) "capacity" 1 (int_member "capacity" cache);
  Alcotest.(check int) "entries" 1 (int_member "entries" cache);
  Alcotest.(check bool) "evictions happened" true
    (int_member "evictions" cache >= 2);
  Alcotest.(check int) "every run re-planned" 3 (int_member "misses" cache);
  Server.close_session server s

let test_server_errors () =
  let server = Server.create (count_bug_db ()) in
  let s = Server.open_session server in
  let expect_error line affix =
    let j, disposition = send server s line in
    Alcotest.(check bool) ("not ok: " ^ line) false (is_ok j);
    Alcotest.(check bool) ("stays open: " ^ line) true (disposition = `Continue);
    let msg = str_member "error" j in
    if not (Astring.String.is_infix ~affix msg) then
      Alcotest.failf "error %S does not mention %S" msg affix
  in
  expect_error "not json" "bad JSON";
  expect_error {|{"sql": "SELECT 1"}|} "op";
  expect_error {|{"op": "query", "sql": "SELECT FROM"}|} "";
  expect_error {|{"op": "query", "sql": "SELECT PNUM FROM PARTS", "engine": "warp"}|} "engine";
  expect_error {|{"op": "execute", "name": "nope"}|} "unknown prepared";
  expect_error
    {|{"op": "load", "table": "T", "columns": [["A", "int"]], "rows": [["x"]]}|}
    "cannot read";
  (* lint still works and reports the COUNT-bug warning through the wire *)
  let j = send_ok server s (Printf.sprintf {|{"op": "lint", "sql": %s}|} (P.to_string (P.Str q2))) in
  Alcotest.(check bool) "NQ001 over the wire" true
    (Astring.String.is_infix ~affix:"NQ001" (P.to_string j));
  Server.close_session server s

(* A statement that fails at run time, under any strategy, and the
   repeated-aggregate statements the planner once crashed on, through the
   wire: each answers (the failure as [ok: false]) and the session's next
   request is answered. *)
let runtime_error_sql = "SELECT PNUM FROM PARTS WHERE QOH = (SELECT QUAN FROM SUPPLY)"

let repeated_aggregate_sql =
  [
    "SELECT COUNT(QUAN), COUNT(QUAN) FROM SUPPLY";
    "SELECT PNUM, MAX(QUAN), MAX(QUAN) FROM SUPPLY GROUP BY PNUM";
  ]

let test_server_statement_errors () =
  let server = Server.create (count_bug_db ()) in
  let s = Server.open_session server in
  let strategies = [ "auto"; "nested"; "batched"; "transformed" ] in
  List.iter
    (fun strategy ->
      let extra = Printf.sprintf {|, "strategy": %S|} strategy in
      List.iter
        (fun op ->
          let line =
            Printf.sprintf {|{"op": %S, "sql": %s%s}|} op
              (P.to_string (P.Str runtime_error_sql))
              extra
          in
          let j, disposition = send server s line in
          Alcotest.(check bool) ("stays open: " ^ line) true (disposition = `Continue);
          if op = "query" && is_ok j then
            Alcotest.failf "%s answered rows" line;
          if not (is_ok j) then begin
            (* a forced rewrite refuses the merge; every other strategy
               fails as SQL does *)
            let expected =
              if strategy = "transformed" then "not transformable"
              else "more than one row"
            in
            let msg = str_member "error" j in
            if not (Astring.String.is_infix ~affix:expected msg) then
              Alcotest.failf "error %S is not %S" msg expected
          end;
          ignore (send_ok server s {|{"op": "stats"}|}))
        [ "query"; "explain" ];
      List.iter
        (fun sql -> ignore (send_ok server s (query_line ~extra sql)))
        repeated_aggregate_sql)
    strategies;
  let j, _ = send server s (query_line ~extra:{|, "strategy": "nested"|} runtime_error_sql) in
  Alcotest.(check bool) "nested iteration fails the statement" false (is_ok j);
  ignore (send_ok server s (query_line q2));
  Server.close_session server s

(* ------------------------------------------------------------------ *)
(* Concurrency over a real Unix socket                                 *)
(* ------------------------------------------------------------------ *)

let test_server_concurrent_sessions () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nestsql_test_%d.sock" (Unix.getpid ()))
  in
  let server = Server.create ~cache_capacity:16 (count_bug_db ()) in
  let ready = ref false in
  let server_thread =
    Thread.create
      (fun () ->
        Server.serve server (Unix.ADDR_UNIX path) ~on_ready:(fun () ->
            ready := true))
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not !ready) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check bool) "server came up" true !ready;
  let failures = Mutex.create () in
  let failed = ref [] in
  let client k =
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      for i = 1 to 5 do
        let sql = if (k + i) mod 2 = 0 then q2 else "SELECT PNUM FROM PARTS" in
        output_string oc (query_line sql);
        output_char oc '\n';
        flush oc;
        let j = parse_exn (input_line ic) in
        if not (is_ok j) then failwith ("response not ok: " ^ P.to_string j)
      done;
      Unix.close fd
    with exn ->
      Mutex.lock failures;
      failed := Printexc.to_string exn :: !failed;
      Mutex.unlock failures
  in
  let clients = List.init 6 (fun k -> Thread.create client k) in
  List.iter Thread.join clients;
  (match !failed with
  | [] -> ()
  | msgs -> Alcotest.failf "client failures: %s" (String.concat "; " msgs));
  (* one more session reads the stats: 6 client sessions total, cache hits
     from the repeated statements *)
  let s = Server.open_session server in
  let stats = send_ok server s {|{"op": "stats"}|} in
  let sessions = Option.get (P.member "sessions" stats) in
  Alcotest.(check bool) "saw >= 4 concurrent sessions" true
    (int_member "total" sessions >= 6);
  let cache = Option.get (P.member "plan_cache" stats) in
  Alcotest.(check bool) "cache hit across sessions" true
    (int_member "hits" cache >= 20);
  Alcotest.(check int) "two distinct statements" 2 (int_member "entries" cache);
  Server.close_session server s;
  Server.shutdown server;
  Thread.join server_thread;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* CLI: malformed flags exit non-zero with a clear message; --engine is
   gone *)
(* ------------------------------------------------------------------ *)

let nestsql_exe = Filename.concat (Filename.concat ".." "bin") "nestsql.exe"

let run_cli args =
  let err = Filename.temp_file "nestsql_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote nestsql_exe) args
         (Filename.quote err))
  in
  let message = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, message)

let test_cli_bad_flags () =
  let check_rejects args affix =
    let code, message = run_cli args in
    Alcotest.(check int) ("exit 1: " ^ args) 1 code;
    if not (Astring.String.is_infix ~affix message) then
      Alcotest.failf "stderr %S does not mention %S" message affix
  in
  (* the engine flag is no longer an option: a usage error *)
  List.iter
    (fun args ->
      let code, message = run_cli args in
      Alcotest.(check bool) ("rejected: " ^ args) true (code <> 0);
      if not (Astring.String.is_infix ~affix:"engine" message) then
        Alcotest.failf "stderr %S does not mention the engine flag" message)
    [
      "run -d kim --engine vectorized \"SELECT SNAME FROM S\"";
      "explain -d kim --engine tuple \"SELECT SNAME FROM S\"";
    ];
  check_rejects "run -d kim --mode fast \"SELECT SNAME FROM S\""
    "unknown mode fast";
  check_rejects "explain -d kim --mode quantum \"SELECT SNAME FROM S\""
    "unknown mode quantum";
  check_rejects "run -d kim --strategy sideways \"SELECT SNAME FROM S\""
    "unknown strategy sideways";
  (* set-up errors: one line, exit 1, never an uncaught exception *)
  List.iter
    (fun (flags, affix) ->
      check_rejects (flags ^ " \"SELECT SNAME FROM S\"") affix)
    [
      ("run -d nosuch", "unknown fixture nosuch");
      ("run -d kim -i SP", "bad --index spec SP");
      ("run -d kim -i SP.NOPE", "no column NOPE in SP");
      ("run -d kim -t bad", "bad --table spec bad");
      ("run -d kim -t X=/nonexistent.csv", "/nonexistent.csv");
    ];
  (* check and lint read a query file: SQL text in its place is a missing
     file, named on one line *)
  List.iter
    (fun cmd ->
      check_rejects
        (cmd ^ " -d count-bug \"SELECT PNUM FROM PARTS\"")
        "cannot read query file SELECT PNUM FROM PARTS: No such file")
    [ "check"; "lint" ];
  (* a run-time error is the statement's error: exit 1, no uncaught
     exception *)
  List.iter
    (fun strategy ->
      let code, message =
        run_cli
          (Printf.sprintf "run -d count-bug -s %s %s" strategy
             (Filename.quote runtime_error_sql))
      in
      Alcotest.(check int) ("runtime error exits 1: " ^ strategy) 1 code;
      if not (Astring.String.is_infix ~affix:"runtime error: scalar subquery" message)
      then Alcotest.failf "stderr %S does not name the runtime error" message)
    [ "nested"; "batched" ];
  List.iter
    (fun sql ->
      List.iter
        (fun strategy ->
          let code, _ =
            run_cli
              (Printf.sprintf "run -d count-bug -s %s %s" strategy
                 (Filename.quote sql))
          in
          Alcotest.(check int) ("answers: " ^ strategy ^ " " ^ sql) 0 code)
        [ "auto"; "nested"; "batched"; "transformed" ])
    repeated_aggregate_sql;
  (* the well-formed values still work *)
  let code, _ =
    run_cli "run -d kim --mode hybrid --strategy batched \"SELECT SNAME FROM S\""
  in
  Alcotest.(check int) "valid mode/strategy accepted" 0 code

(* ------------------------------------------------------------------ *)
(* Hostile input                                                       *)
(* ------------------------------------------------------------------ *)

(* One valid request of every verb; the load targets its own table, so no
   mutation of it can touch the tables the follow-up query reads. *)
let valid_requests =
  [
    query_line ~extra:{|, "engine": "vectorized", "mode": "hybrid"|} q2;
    Printf.sprintf {|{"op": "prepare", "name": "p", "sql": %s, "strategy": "auto"}|}
      (P.to_string (P.Str q5));
    {|{"op": "execute", "name": "p"}|};
    Printf.sprintf {|{"op": "explain", "sql": %s, "analyze": true}|}
      (P.to_string (P.Str q2));
    Printf.sprintf {|{"op": "lint", "sql": %s, "check": true}|}
      (P.to_string (P.Str q5));
    {|{"op": "load", "table": "TX", "columns": [["A", "int"], ["D", "date"], ["F", "float"], ["S", "str"]], "rows": [[1, "1979-06-01", 2.5, "x"], [null, null, null, null]]}|};
    {|{"op": "stats"}|};
    {|{"op": "close"}|};
  ]

(* Random bytes, a truncated valid request, or a valid request with one
   byte replaced. *)
let hostile_line =
  let open QCheck2.Gen in
  let any_byte = map Char.chr (int_range 0 255) in
  oneof
    [
      string_size ~gen:any_byte (int_range 0 120);
      (let* r = oneofl valid_requests in
       let* n = int_range 0 (String.length r) in
       return (String.sub r 0 n));
      (let* r = oneofl valid_requests in
       let* i = int_range 0 (String.length r - 1) in
       let* b = any_byte in
       return (String.mapi (fun j c -> if j = i then b else c) r));
    ]

(* [handle_line] never raises on a hostile line, answers it with exactly
   one line, and still answers a valid query afterwards. *)
let test_hostile_input =
  let server =
    lazy
      (let server = Server.create ~cache_capacity:8 (count_bug_db ()) in
       (server, Server.open_session server))
  in
  let answer line =
    let server, session = Lazy.force server in
    fst (Server.handle_line server session line)
  in
  QCheck2.Test.make ~name:"handle_line: hostile bytes, truncations, mutations"
    ~count:2000 ~print:String.escaped hostile_line (fun line ->
      let response = answer line in
      (not (String.contains response '\n'))
      && Result.is_ok (P.parse response)
      && is_ok (parse_exn (answer (query_line q2))))

let suites =
  [
    ( "server.protocol",
      [
        Alcotest.test_case "request parsing" `Quick test_request_parsing;
        QCheck_alcotest.to_alcotest test_hostile_input;
      ] );
    ( "server.plan_cache",
      [
        Alcotest.test_case "LRU accounting" `Quick test_cache_lru;
        QCheck_alcotest.to_alcotest test_cached_equals_fresh;
      ] );
    ( "server.session",
      [
        Alcotest.test_case "prepare/execute hit accounting" `Quick
          test_server_prepare_execute;
        Alcotest.test_case "strategy knob is part of the request, not the cache key" `Quick
          test_server_strategy_not_cache_key;
        Alcotest.test_case "explain honours the strategy knob" `Quick
          test_server_explain_strategy;
        Alcotest.test_case "load invalidates and re-prepares" `Quick
          test_server_load_invalidates;
        Alcotest.test_case "indexes rebuilt across load (stale-index fix)"
          `Quick test_server_index_survives_load;
        Alcotest.test_case "CREATE INDEX invalidates the cache" `Quick
          test_server_create_index_invalidates;
        Alcotest.test_case "NOT IN: query and explain agree" `Quick
          test_server_not_in_query_explain_agree;
        Alcotest.test_case "eviction under capacity 1" `Quick
          test_server_eviction_under_tiny_capacity;
        Alcotest.test_case "protocol errors" `Quick test_server_errors;
        Alcotest.test_case "statement errors answer; the session goes on"
          `Quick test_server_statement_errors;
      ] );
    ( "server.concurrent",
      [
        Alcotest.test_case "6 sessions over a Unix socket" `Quick
          test_server_concurrent_sessions;
      ] );
    ( "server.cli",
      [ Alcotest.test_case "strict --engine/--mode" `Quick test_cli_bad_flags ] );
  ]

(* The nestsql server engine (docs/SERVER.md, DESIGN.md §14).

   One statement mutex serializes every catalog-touching operation; the
   socket loop is thread-per-connection with a polling accept so shutdown
   is prompt and portable.  [handle_line] is the entire protocol and takes
   a plain string, so the test suite drives sessions without sockets. *)

(* server.ml shares the library's name, so it is the library interface:
   the submodules are re-exported here and the engine lives at the top
   level (Server.create / Server.serve / Server.Protocol...). *)
module Protocol = Protocol
module Plan_cache = Plan_cache
module Session = Session

module P = Protocol
module Catalog = Storage.Catalog

type vstat = {
  mutable v_count : int;
  mutable v_total_s : float;
  mutable v_max_s : float;
}

type t = {
  db : Core.db;
  plan_cache : Plan_cache.t;
  lock : Mutex.t; (* serializes analysis/transformation/execution/load *)
  meta : Mutex.t; (* the counters below *)
  verbs : (string, vstat) Hashtbl.t;
  started : float;
  mutable next_session : int;
  mutable active_sessions : int;
  mutable total_sessions : int;
  mutable closing : bool;
  mutable listen_fd : Unix.file_descr option;
}

let create ?(cache_capacity = 128) db =
  {
    db;
    plan_cache = Plan_cache.create ~capacity:cache_capacity ();
    lock = Mutex.create ();
    meta = Mutex.create ();
    verbs = Hashtbl.create 8;
    started = Unix.gettimeofday ();
    next_session = 0;
    active_sessions = 0;
    total_sessions = 0;
    closing = false;
    listen_fd = None;
  }

let cache t = t.plan_cache

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let open_session t =
  with_lock t.meta (fun () ->
      t.next_session <- t.next_session + 1;
      t.active_sessions <- t.active_sessions + 1;
      t.total_sessions <- t.total_sessions + 1;
      Session.create ~id:t.next_session)

let close_session t (_ : Session.t) =
  with_lock t.meta (fun () ->
      t.active_sessions <- max 0 (t.active_sessions - 1))

let record_verb t name seconds =
  with_lock t.meta (fun () ->
      let v =
        match Hashtbl.find_opt t.verbs name with
        | Some v -> v
        | None ->
            let v = { v_count = 0; v_total_s = 0.; v_max_s = 0. } in
            Hashtbl.add t.verbs name v;
            v
      in
      v.v_count <- v.v_count + 1;
      v.v_total_s <- v.v_total_s +. seconds;
      if seconds > v.v_max_s then v.v_max_s <- seconds)

(* ------------------------------------------------------------------ *)
(* Statement preparation against the shared plan cache                  *)
(* ------------------------------------------------------------------ *)

(* The [engine] knob is validated when the request is parsed and then
   ignored: there is one executor. *)
let resolve (k : P.knobs) =
  ( Option.value k.strategy ~default:Core.Auto,
    Option.value k.mode ~default:Optimizer.Planner.Paper1987 )

(* Parse/analyze (to learn the normalized key text), then either reuse the
   cached prepared statement or do the transform once and cache it.  The
   transform is forced here, under the statement lock, so a cached entry is
   never lazily forced from two threads.  Returns the cache disposition
   ("hit" / "miss") for the response. *)
let prepare_cached t sql : (Core.prepared * string, string) result =
  match Core.parse t.db sql with
  | Error e -> Error e
  | Ok q -> (
      let key = Sql.Pp.query_to_string q in
      match Plan_cache.find t.plan_cache key with
      | Some p -> Ok (p, "hit")
      | None ->
          let p = Core.prepare_query t.db q in
          ignore (Lazy.force p.Core.program);
          Plan_cache.add t.plan_cache key p;
          Ok (p, "miss"))

let execute t session ~knobs (p : Core.prepared) =
  let strategy, mode = resolve knobs in
  let t0 = Unix.gettimeofday () in
  match Core.run_prepared ~strategy ~mode t.db p with
  | Error _ as e -> e
  | Ok (e : Core.execution) ->
      let wall_s = Unix.gettimeofday () -. t0 in
      Session.record session
        ~rows:(Core.Relation.cardinality e.Core.result)
        ~wall_s ~io:e.Core.io;
      Ok (e, wall_s)

let io_json (io : Storage.Pager.stats) =
  P.Obj
    [
      ("logical_reads", P.Int io.Storage.Pager.logical_reads);
      ("physical_reads", P.Int io.Storage.Pager.physical_reads);
      ("physical_writes", P.Int io.Storage.Pager.physical_writes);
    ]

let result_fields ~cache_status (e : Core.execution) wall_s =
  let rel = e.Core.result in
  let columns =
    List.map
      (fun (c : Core.Schema.column) -> P.Str c.Core.Schema.name)
      (Core.Schema.columns (Core.Relation.schema rel))
  in
  let rows =
    List.map
      (fun row ->
        P.List (List.map P.json_of_value (Relalg.Row.to_list row)))
      (Core.Relation.rows rel)
  in
  [
    ("columns", P.List columns);
    ("rows", P.List rows);
    ("row_count", P.Int (Core.Relation.cardinality rel));
    ("strategy", P.Str (Core.via_name e.Core.via));
    ("cache", P.Str cache_status);
    ("wall_ms", P.Float (wall_s *. 1e3));
    ("io", io_json e.Core.io);
  ]

let classification_name q =
  match Optimizer.Classify.classify_query q with
  | Some c -> Optimizer.Classify.name c
  | None -> "flat"

(* ------------------------------------------------------------------ *)
(* Verbs                                                               *)
(* ------------------------------------------------------------------ *)

(* CREATE INDEX arrives as a [query] statement: DDL, not a query plan —
   build the B-tree, then sweep the plan cache: every cached program was
   chosen against the old index inventory.  The sweep also bumps the cache
   epoch so sessions re-analyze their prepared statements. *)
let do_create_index t sql =
  match Core.execute_create_index t.db sql with
  | Error e -> P.error_response e
  | Ok msg ->
      let invalidated = Plan_cache.invalidate t.plan_cache in
      P.ok_response
        [ ("message", P.Str msg); ("invalidated", P.Int invalidated) ]

let do_query t session ~knobs sql =
  if Core.is_create_index sql then do_create_index t sql
  else
    match prepare_cached t sql with
    | Error e -> P.error_response e
    | Ok (p, cache_status) -> (
        match execute t session ~knobs p with
        | Error e -> P.error_response e
        | Ok (e, wall_s) ->
            P.ok_response (result_fields ~cache_status e wall_s))

let do_prepare t (session : Session.t) ~name ~knobs sql =
  match prepare_cached t sql with
  | Error e -> P.error_response e
  | Ok (p, cache_status) ->
      Hashtbl.replace session.Session.prepared name
        {
          Session.sql;
          knobs;
          prep = p;
          cache_epoch = Plan_cache.epoch t.plan_cache;
        };
      P.ok_response
        [
          ("name", P.Str name);
          ("cache", P.Str cache_status);
          ("classification", P.Str (classification_name p.Core.query));
          ( "transformable",
            P.Bool (Result.is_ok (Lazy.force p.Core.program)) );
        ]

(* Executing a prepared name re-touches the shared cache so repeated
   executions show up as hits in [stats]; if a [load] bumped the cache
   epoch since [prepare], the statement text is re-analyzed against the
   new catalog first (the cached analysis names dropped tables). *)
let do_execute t (session : Session.t) ~name =
  match Hashtbl.find_opt session.Session.prepared name with
  | None -> P.error_response (Printf.sprintf "unknown prepared statement %S" name)
  | Some entry -> (
      let refreshed =
        let epoch = Plan_cache.epoch t.plan_cache in
        if entry.Session.cache_epoch <> epoch then
          match prepare_cached t entry.Session.sql with
          | Error e -> Error e
          | Ok (p, status) ->
              entry.Session.prep <- p;
              entry.Session.cache_epoch <- epoch;
              Ok (p, status)
        else
          let key = entry.Session.prep.Core.normalized in
          match Plan_cache.find t.plan_cache key with
          | Some p ->
              entry.Session.prep <- p;
              Ok (p, "hit")
          | None ->
              (* evicted between executions: reinstall the still-valid plan
                 (the find above counted the miss) *)
              Plan_cache.add t.plan_cache key entry.Session.prep;
              Ok (entry.Session.prep, "miss")
      in
      match refreshed with
      | Error e -> P.error_response e
      | Ok (p, cache_status) -> (
          match execute t session ~knobs:entry.Session.knobs p with
          | Error e -> P.error_response e
          | Ok (e, wall_s) ->
              P.ok_response
                (("name", P.Str name) :: result_fields ~cache_status e wall_s)))

let do_explain t ~knobs ~analyze sql =
  let strategy, mode = resolve knobs in
  match Core.explain_query ~strategy ~mode ~analyze t.db sql with
  | Ok text -> P.ok_response [ ("text", P.Str text) ]
  | Error e -> P.error_response e

let do_lint t ~check sql =
  let lint_diags = Core.lint_query t.db sql in
  (* With [check], the semantic checker rides along: plan validation and
     the bounded counterexample search per query, its diagnostics merged
     into the same list and its per-query certificates reported. *)
  let check_diags, certificates =
    if not check then ([], [])
    else
      match Core.check_source t.db sql with
      | Error _ -> ([], [])
      | Ok reports ->
          ( List.concat_map (fun r -> r.Core.ck_diags) reports,
            List.filter_map (fun r -> r.Core.ck_certificate) reports )
  in
  P.ok_response
    (Analysis.Diagnostics.report_fields (lint_diags @ check_diags)
    @
    if check then
      [ ("certificates", P.List (List.map (fun c -> P.Str c) certificates)) ]
    else [])

let do_load t ~table ~columns ~rows =
  (* The old heap's indexes die with the drop; remember which columns were
     indexed and rebuild them on the replacement heap, so a statement
     re-executed after [load] probes the new data instead of reading a
     stale tree (or silently losing its index access path). *)
  let catalog = Core.catalog t.db in
  let indexed =
    match Catalog.lookup catalog table with
    | Some _ -> Catalog.indexed_columns catalog table
    | None -> []
  in
  match
    Catalog.drop catalog table;
    Core.define_table t.db table columns rows
  with
  | () ->
      let rebuilt =
        List.filter
          (fun column ->
            match Catalog.column_stats catalog table column with
            | Some _ ->
                Core.create_index t.db table ~column;
                true
            | None -> false)
          indexed
      in
      let invalidated = Plan_cache.invalidate t.plan_cache in
      P.ok_response
        [
          ("table", P.Str table);
          ("rows_loaded", P.Int (List.length rows));
          ("indexes_rebuilt", P.Int (List.length rebuilt));
          ("invalidated", P.Int invalidated);
        ]
  | exception Invalid_argument msg -> P.error_response msg
  | exception Failure msg -> P.error_response msg

let do_stats t session =
  let c = Plan_cache.counters t.plan_cache in
  let verbs =
    with_lock t.meta (fun () ->
        Hashtbl.fold
          (fun name v acc ->
            ( name,
              P.Obj
                [
                  ("count", P.Int v.v_count);
                  ("total_ms", P.Float (v.v_total_s *. 1e3));
                  ("max_ms", P.Float (v.v_max_s *. 1e3));
                ] )
            :: acc)
          t.verbs [])
    |> List.sort compare
  in
  let sessions =
    with_lock t.meta (fun () ->
        P.Obj
          [
            ("active", P.Int t.active_sessions);
            ("total", P.Int t.total_sessions);
          ])
  in
  P.ok_response
    [
      ("uptime_s", P.Float (Unix.gettimeofday () -. t.started));
      ("sessions", sessions);
      ( "plan_cache",
        P.Obj
          [
            ("capacity", P.Int (Plan_cache.capacity t.plan_cache));
            ("entries", P.Int (Plan_cache.length t.plan_cache));
            ("hits", P.Int c.Plan_cache.hits);
            ("misses", P.Int c.Plan_cache.misses);
            ("evictions", P.Int c.Plan_cache.evictions);
            ("invalidations", P.Int c.Plan_cache.invalidations);
            ("epoch", P.Int (Plan_cache.epoch t.plan_cache));
          ] );
      ("session", Session.to_json session);
      ("verbs", P.Obj verbs);
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let handle_line t session line : string * [ `Continue | `Close ] =
  let t0 = Unix.gettimeofday () in
  let verb, (response, disposition) =
    match P.request_of_line line with
    | Error e -> ("invalid", (P.error_response e, `Continue))
    | Ok req ->
        let resp =
          (* every catalog-touching verb under the one statement lock *)
          match req with
          | P.Query { sql; knobs } ->
              with_lock t.lock (fun () -> do_query t session ~knobs sql)
          | P.Prepare { name; sql; knobs } ->
              with_lock t.lock (fun () -> do_prepare t session ~name ~knobs sql)
          | P.Execute { name } ->
              with_lock t.lock (fun () -> do_execute t session ~name)
          | P.Explain { sql; analyze; knobs } ->
              with_lock t.lock (fun () -> do_explain t ~knobs ~analyze sql)
          | P.Lint { sql; check } ->
              with_lock t.lock (fun () -> do_lint t ~check sql)
          | P.Load { table; columns; rows } ->
              with_lock t.lock (fun () -> do_load t ~table ~columns ~rows)
          | P.Stats -> do_stats t session
          | P.Close -> P.ok_response [ ("closing", P.Bool true) ]
        in
        let disposition = match req with P.Close -> `Close | _ -> `Continue in
        (P.verb_name req, (resp, disposition))
  in
  record_verb t verb (Unix.gettimeofday () -. t0);
  (response, disposition)

(* ------------------------------------------------------------------ *)
(* Socket loop                                                         *)
(* ------------------------------------------------------------------ *)

let handle_connection t fd =
  let session = open_session t in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line -> (
        let line = String.trim line in
        if line = "" then loop ()
        else
          let response, disposition = handle_line t session line in
          match
            output_string oc response;
            output_char oc '\n';
            flush oc
          with
          | () -> ( match disposition with `Continue -> loop () | `Close -> ())
          | exception Sys_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      close_session t session;
      (try flush oc with Sys_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    loop

let serve ?(backlog = 64) ?on_ready t sockaddr =
  (* a client that disconnects mid-response must not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (match sockaddr with
  | Unix.ADDR_UNIX path when Sys.file_exists path -> Unix.unlink path
  | _ -> ());
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd sockaddr;
  Unix.listen fd backlog;
  t.listen_fd <- Some fd;
  Option.iter (fun f -> f ()) on_ready;
  (* Polling accept: closing a listening socket does not reliably wake a
     thread blocked in accept(2), so shutdown flips [closing] and the loop
     notices within one select timeout. *)
  let rec accept_loop () =
    if t.closing then ()
    else
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> accept_loop ()
      | _ -> (
          match Unix.accept fd with
          | conn, _ ->
              ignore (Thread.create (fun () -> handle_connection t conn) ());
              accept_loop ()
          | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _)
            ->
              accept_loop ()
          | exception Unix.Unix_error _ when t.closing -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ when t.closing -> ()
  in
  accept_loop ();
  t.listen_fd <- None;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match sockaddr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with _ -> ())
  | _ -> ()

let shutdown t = t.closing <- true

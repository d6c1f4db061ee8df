(* nestsql: command-line front end.

     nestsql run       [-d kim] "SELECT ..."      run a query (auto strategy)
     nestsql compare   [-d count-bug] "..."       both strategies + page I/O
     nestsql classify  "..."                      Kim's nesting class
     nestsql transform "..."                      print the canonical program
     nestsql explain   [--analyze] "..."          physical plans (+ runtime)
     nestsql lint      [--json] FILE|-            static diagnostics (NQxxx)
     nestsql tables    [-d kim]                   list tables of the fixture
     nestsql serve     --socket PATH | --port N   long-lived JSON-line server
     nestsql client    --socket PATH -e "..."     send statements to a server

   Databases: a built-in fixture (-d kim | count-bug | neq-bug | duplicates)
   and/or CSV tables loaded with  -t NAME=path.csv  (header NAME:TYPE,...).

   --trace (or NESTOPT_TRACE=1) emits one JSON line per operator event to
   stderr during plan execution; schema in docs/EXPLAIN.md.  The server
   protocol is documented in docs/SERVER.md. *)

module Catalog = Storage.Catalog
module F = Workload.Fixtures
open Cmdliner

(* ---------------- database setup -------------------------------------- *)

let die msg =
  Fmt.epr "error: %s@." msg;
  exit 1

(* A CSV table or directory that cannot be read, parsed or registered
   ends the command with one line, like every other set-up error. *)
let loading load path =
  match load path with
  | () -> ()
  | exception
      ( Sys_error msg
      | Workload.Csv_loader.Bad_csv msg
      | Invalid_argument msg ) ->
      die msg

let setup_db load_dir fixture tables buffer_pages page_bytes indexes =
  let db = Core.create_db ~buffer_pages ~page_bytes () in
  let define name rel =
    Core.define_table db name
      (List.map
         (fun (c : Core.Schema.column) -> (c.name, c.ty))
         (Core.Schema.columns (Core.Relation.schema rel)))
      (List.map Relalg.Row.to_list (Core.Relation.rows rel))
  in
  (match fixture with
  | "none" -> ()
  | "kim" ->
      define "S" F.suppliers;
      define "P" F.parts;
      define "SP" F.shipments
  | "count-bug" ->
      define "PARTS" F.kiessling_parts;
      define "SUPPLY" F.kiessling_supply
  | "neq-bug" ->
      define "PARTS" F.neq_parts;
      define "SUPPLY" F.neq_supply
  | "duplicates" ->
      define "PARTS" F.dup_parts;
      define "SUPPLY" F.dup_supply
  | other -> die ("unknown fixture " ^ other));
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | None -> die ("bad --table spec " ^ spec ^ " (want NAME=path.csv)")
      | Some i ->
          let name = String.sub spec 0 i in
          let path = String.sub spec (i + 1) (String.length spec - i - 1) in
          loading
            (fun path -> define name (Workload.Csv_loader.load_file ~rel:name path))
            path)
    tables;
  Option.iter (loading (Workload.Csv_writer.load_dir (Core.catalog db))) load_dir;
  List.iter
    (fun spec ->
      match String.index_opt spec '.' with
      | None -> die ("bad --index spec " ^ spec ^ " (want TABLE.COLUMN)")
      | Some i ->
          let table = String.sub spec 0 i in
          let column = String.sub spec (i + 1) (String.length spec - i - 1) in
          match Catalog.lookup (Core.catalog db) table with
          | None -> die ("--index: unknown table " ^ table)
          | Some schema -> (
              match Core.Schema.find_opt schema column with
              | None -> die ("--index: no column " ^ column ^ " in " ^ table)
              | exception Core.Schema.Ambiguous _ ->
                  die ("--index: ambiguous column " ^ column)
              | Some _ -> Core.create_index db table ~column))
    indexes;
  db

(* ---------------- common options -------------------------------------- *)

let fixture =
  let doc = "Built-in fixture: kim, count-bug, neq-bug, duplicates, none." in
  Arg.(value & opt string "kim" & info [ "d"; "database" ] ~docv:"NAME" ~doc)

let tables =
  let doc = "Load a CSV table: NAME=path.csv (header NAME:TYPE,...)." in
  Arg.(value & opt_all string [] & info [ "t"; "table" ] ~docv:"SPEC" ~doc)

let load_dir =
  let doc = "Load every NAME.csv in a directory as table NAME." in
  Arg.(value & opt (some string) None & info [ "D"; "load-dir" ] ~docv:"DIR" ~doc)

let buffer_pages =
  let doc = "Buffer pool size in pages (the paper's B)." in
  Arg.(value & opt int 8 & info [ "B"; "buffer-pages" ] ~docv:"N" ~doc)

let indexes =
  let doc =
    "Build a B-tree index on TABLE.COLUMN before running (repeatable).  \
     Indexed columns open the planner's IndexScan / index nested-loop \
     access paths and Auto's un-transformed indexed nested iteration."
  in
  Arg.(value & opt_all string [] & info [ "i"; "index" ] ~docv:"TABLE.COLUMN" ~doc)

let page_bytes =
  let doc = "Page size in bytes." in
  Arg.(value & opt int 256 & info [ "page-bytes" ] ~docv:"N" ~doc)

let sql =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")

let strategy =
  let doc = "Evaluation strategy: auto, nested, transformed, batched." in
  Arg.(value & opt string "auto" & info [ "s"; "strategy" ] ~doc)

let trace =
  let doc = "Print the NEST-G transformation steps." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let exec_trace =
  let doc =
    "Emit one JSON line per operator event (open/batch/close) to stderr \
     during plan execution.  NESTOPT_TRACE=1 has the same effect."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let analyze =
  let doc =
    "Also execute the plans and annotate each operator with actual rows, \
     next calls, wall-clock time and page I/O."
  in
  Arg.(value & flag & info [ "analyze" ] ~doc)

(* The operator-event sink: on with --trace or NESTOPT_TRACE=1. *)
let trace_sink flag =
  if flag || Sys.getenv_opt "NESTOPT_TRACE" = Some "1" then
    Some (fun line -> Printf.eprintf "%s\n%!" line)
  else None

let ok_or_die = function Ok v -> v | Error msg -> die msg

(* --mode/--strategy values are validated strictly: a typo exits 1 with a
   clear message and must never silently select a default. *)
let mode =
  let doc = "Planner mode: paper1987 (the paper's cost model, the default) \
             or hybrid (adds hash operators under blended I/O+CPU costing)."
  in
  Arg.(value & opt string "paper1987" & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let mode_of_flag s =
  match Optimizer.Planner.mode_of_string s with
  | Some m -> m
  | None -> die ("unknown mode " ^ s ^ " (want paper1987 or hybrid)")

let strategy_of_flag s =
  match Core.strategy_of_string s with
  | Some st -> st
  | None ->
      die
        ("unknown strategy " ^ s
       ^ " (want auto, nested, transformed or batched)")

(* ---------------- commands -------------------------------------------- *)

let run_cmd load_dir fixture tables buffer_pages page_bytes indexes strategy mode
    exec_trace sql =
  let db = setup_db load_dir fixture tables buffer_pages page_bytes indexes in
  let strategy = strategy_of_flag strategy in
  let mode = mode_of_flag mode in
  let e =
    ok_or_die (Core.run ~strategy ~mode ?trace:(trace_sink exec_trace) db sql)
  in
  Fmt.pr "%a@.(%a)@." Core.Relation.pp e.Core.result Core.pp_execution e

let compare_cmd load_dir fixture tables buffer_pages page_bytes indexes sql =
  let db = setup_db load_dir fixture tables buffer_pages page_bytes indexes in
  let c = ok_or_die (Core.compare_strategies db sql) in
  Fmt.pr "%a@.@." Core.Relation.pp c.Core.nested.Core.result;
  Fmt.pr "%a@." Core.pp_execution c.Core.nested;
  (match c.Core.transformed with
  | Some t -> Fmt.pr "%a@." Core.pp_execution t
  | None -> Fmt.pr "transformation: not applicable@.");
  Fmt.pr "results agree (the oracle's comparison): %b@." c.Core.agree

let classify_cmd load_dir fixture tables buffer_pages page_bytes indexes sql =
  let db = setup_db load_dir fixture tables buffer_pages page_bytes indexes in
  match ok_or_die (Core.classify db sql) with
  | Some c -> Fmt.pr "%a@." Optimizer.Classify.pp c
  | None -> Fmt.pr "flat (no nesting)@."

let transform_cmd load_dir fixture tables buffer_pages page_bytes indexes trace sql =
  let db = setup_db load_dir fixture tables buffer_pages page_bytes indexes in
  let program, steps = ok_or_die (Core.transform_traced db sql) in
  if trace then begin
    Fmt.pr "transformation steps:@.";
    List.iteri (fun i s -> Fmt.pr "  %d. %s@." (i + 1) s) steps;
    Fmt.pr "@."
  end;
  Fmt.pr "%a@." Optimizer.Program.pp program

let tree_cmd load_dir fixture tables buffer_pages page_bytes indexes sql =
  let db = setup_db load_dir fixture tables buffer_pages page_bytes indexes in
  let tree = ok_or_die (Core.query_tree db sql) in
  Fmt.pr "%a" Optimizer.Query_tree.pp tree

let explain_cmd load_dir fixture tables buffer_pages page_bytes indexes analyze
    strategy mode exec_trace sql =
  let db = setup_db load_dir fixture tables buffer_pages page_bytes indexes in
  let strategy = strategy_of_flag strategy in
  let mode = mode_of_flag mode in
  Fmt.pr "%s@."
    (ok_or_die
       (Core.explain_query ~strategy ~mode ~analyze
          ?trace:(trace_sink exec_trace) db sql))

(* ---------------- lint -------------------------------------------------- *)

(* Cut every line at the first "--" outside a quoted string.  Truncating
   (rather than deleting lines) keeps the line:col positions of everything
   before the comment intact, so diagnostic spans still point into the
   original file. *)
let strip_sql_comments src =
  String.split_on_char '\n' src
  |> List.map (fun line ->
         let n = String.length line in
         let rec scan i in_quote =
           if i >= n then line
           else if line.[i] = '\'' then scan (i + 1) (not in_quote)
           else if
             (not in_quote) && line.[i] = '-' && i + 1 < n
             && line.[i + 1] = '-'
           then String.sub line 0 i
           else scan (i + 1) in_quote
         in
         scan 0 false)
  |> String.concat "\n"

(* A query file can pin its fixture with a "-- fixture: NAME" pragma line
   (the corpus under examples/queries/ does); it overrides -d. *)
let fixture_pragma src =
  let prefix = "-- fixture:" in
  List.find_map
    (fun line ->
      let line = String.trim line in
      if
        String.length line >= String.length prefix
        && String.sub line 0 (String.length prefix) = prefix
      then
        Some
          (String.trim
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix)))
      else None)
    (String.split_on_char '\n' src)

(* A query file, or "-" for stdin; a file that cannot be read ends the
   command with one line naming it. *)
let read_source = function
  | "-" -> In_channel.input_all stdin
  | path -> (
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error msg -> die ("cannot read query file " ^ msg))

(* --severity: the exit-1 gate.  "error" (the default) fails only on
   error-severity diagnostics; "warning" also fails on warnings, so CI can
   choose how strict to be without parsing the output. *)
let severity_gate = function
  | "error" -> fun diags -> Analysis.Diagnostics.has_errors diags
  | "warning" ->
      fun diags ->
        List.exists
          (fun (d : Analysis.Diagnostics.t) ->
            match d.Analysis.Diagnostics.severity with
            | Analysis.Diagnostics.Error | Analysis.Diagnostics.Warning -> true
            | Analysis.Diagnostics.Info -> false)
          diags
  | other -> die ("unknown severity threshold " ^ other ^ " (want error or warning)")

let lint_cmd load_dir fixture tables buffer_pages page_bytes indexes json severity file
    =
  let gate = severity_gate severity in
  let src = read_source file in
  let fixture = Option.value (fixture_pragma src) ~default:fixture in
  let db = setup_db load_dir fixture tables buffer_pages page_bytes indexes in
  let diags = Core.lint_query db (strip_sql_comments src) in
  if json then
    print_endline (Json.to_string (Analysis.Diagnostics.json_report diags))
  else if diags = [] then Fmt.pr "no diagnostics@."
  else Fmt.pr "%s" (Analysis.Diagnostics.list_to_string diags);
  if gate diags then exit 1

(* ---------------- check ------------------------------------------------- *)

(* An input is in oracle-repro format when it carries inline table data
   ("-- table" header lines); then the database comes from the file itself
   rather than a fixture. *)
let is_repro_format src =
  List.exists
    (fun line ->
      let line = String.trim line in
      String.length line >= 9 && String.sub line 0 9 = "-- table ")
    (String.split_on_char '\n' src)

let print_check_report i (r : Core.check_report) =
  Fmt.pr "query %d: %s@." (i + 1) r.Core.ck_sql;
  List.iter
    (fun (via, msg) -> Fmt.pr "  %s refused: %s@." (Core.via_name via) msg)
    r.Core.ck_refused;
  Fmt.pr "  plans checked: %s@."
    (String.concat ", " (List.map fst r.Core.ck_plans));
  if r.Core.ck_diags <> [] then
    Fmt.pr "%s" (Analysis.Diagnostics.list_to_string r.Core.ck_diags);
  (match r.Core.ck_certificate with
  | Some c -> Fmt.pr "  %s@." c
  | None -> ());
  match r.Core.ck_repro with
  | Some (Ok repro) ->
      Fmt.pr "  counterexample (replay with `nestsql fuzz --replay`):@.";
      String.split_on_char '\n' (String.trim repro)
      |> List.iter (fun line -> Fmt.pr "    %s@." line)
  | Some (Error why) -> Fmt.pr "  counterexample: %s@." why
  | None -> ()

let check_cmd load_dir fixture tables buffer_pages page_bytes indexes json severity
    bound file =
  let gate = severity_gate severity in
  let src = read_source file in
  let db, sql =
    if is_repro_format src then
      match Oracle.Repro.of_string src with
      | case -> (Oracle.Repro.build_db case, case.Oracle.Repro.sql)
      | exception Oracle.Repro.Bad_repro msg -> die msg
    else
      let fixture = Option.value (fixture_pragma src) ~default:fixture in
      ( setup_db load_dir fixture tables buffer_pages page_bytes indexes,
        strip_sql_comments src )
  in
  let reports = ok_or_die (Core.check_source ~bound db sql) in
  if json then print_endline (Json.to_string (Core.check_json reports))
  else List.iteri print_check_report reports;
  if gate (List.concat_map (fun r -> r.Core.ck_diags) reports) then exit 1

(* ---------------- fuzz -------------------------------------------------- *)

(* Differential oracle: random databases and nested queries, every
   evaluation path cross-checked against nested iteration; discrepancies
   are delta-debugged to minimal repro files (docs/ORACLE.md). *)
let fuzz_cmd seed count write_dir replays quiet refusals_below check =
  let log = if quiet then ignore else fun s -> Fmt.epr "%s@." s in
  (* --replay FILE/DIR: check existing repros instead of generating. *)
  if replays <> [] then begin
    let files =
      List.concat_map
        (fun path ->
          if Sys.is_directory path then
            Sys.readdir path |> Array.to_list |> List.sort compare
            |> List.filter (fun f -> Filename.check_suffix f ".sql")
            |> List.map (Filename.concat path)
          else [ path ])
        replays
    in
    if files = [] then die "no .sql repro files to replay";
    let failures =
      List.filter_map
        (fun file ->
          match Oracle.Driver.replay file with
          | Ok () ->
              Fmt.pr "%s: ok@." file;
              None
          | Error msg -> Some msg)
        files
    in
    if failures <> [] then begin
      List.iter (fun msg -> Fmt.epr "%s@." msg) failures;
      die
        (Printf.sprintf "%d of %d repro(s) disagree" (List.length failures)
           (List.length files))
    end
  end
  else begin
    let report = Oracle.Driver.run ~log ~check ~seed ~count () in
    Fmt.pr "%a@." Oracle.Driver.pp_report report;
    (* --assert-refusals-below: a coverage ratchet.  Adding a strategy to
       the matrix must lower the total refusal count (more cells answer);
       CI pins the previous baseline so a regression that re-widens a
       refusal guard fails loudly even when every answering cell agrees. *)
    (match refusals_below with
    | Some bound when report.Oracle.Driver.refusals >= bound ->
        die
          (Printf.sprintf "refusal count %d is not below the bound %d"
             report.Oracle.Driver.refusals bound)
    | _ -> ());
    match report.Oracle.Driver.discrepancies with
    | [] -> ()
    | ds ->
        List.iteri
          (fun i (d : Oracle.Driver.discrepancy) ->
            let description =
              Printf.sprintf "seed %d case %d: %s" seed d.Oracle.Driver.index
                (String.concat "; " d.Oracle.Driver.details)
            in
            let text =
              Oracle.Repro.to_string ~description d.Oracle.Driver.case
            in
            match write_dir with
            | Some dir ->
                if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                let path =
                  Filename.concat dir
                    (Printf.sprintf "fuzz_seed%d_case%d.sql" seed
                       d.Oracle.Driver.index)
                in
                Out_channel.with_open_text path (fun oc ->
                    Out_channel.output_string oc text);
                Fmt.epr "wrote %s@." path
            | None ->
                Fmt.epr "--- discrepancy %d ---@.%s%s@." (i + 1) text
                  (String.concat "\n"
                     (List.map (fun l -> "-- " ^ l) d.Oracle.Driver.details)))
          ds;
        die
          (Printf.sprintf "%d discrepancy(ies) found" (List.length ds))
  end

let tables_cmd load_dir fixture tables buffer_pages page_bytes indexes =
  let db = setup_db load_dir fixture tables buffer_pages page_bytes indexes in
  List.iter
    (fun name ->
      let catalog = Core.catalog db in
      Fmt.pr "%-10s %4d rows  %3d pages  %a@." name
        (Catalog.tuples catalog name)
        (Catalog.pages catalog name)
        Core.Schema.pp (Catalog.schema catalog name))
    (List.sort compare (Catalog.table_names (Core.catalog db)))

let repl_cmd load_dir fixture tables buffer_pages page_bytes indexes =
  let db = setup_db load_dir fixture tables buffer_pages page_bytes indexes in
  let strategy = ref Core.Auto in
  Fmt.pr
    "nestsql %s — interactive shell.@.Enter SQL, EXPLAIN [ANALYZE] SQL, \
     LINT SQL, CHECK SQL or CREATE INDEX ON t (c), or: \\tables, \\tree \
     SQL, \\transform SQL, \\explain SQL, \\compare SQL, \\strategy \
     auto|nested|transformed|batched, \\quit@.@."
    Core.version;
  let show_tables () =
    List.iter
      (fun name ->
        let catalog = Core.catalog db in
        let idx =
          match Catalog.indexed_columns catalog name with
          | [] -> ""
          | cols -> "  indexed: " ^ String.concat ", " (List.sort compare cols)
        in
        Fmt.pr "%-10s %4d rows  %3d pages%s@." name
          (Catalog.tuples catalog name)
          (Catalog.pages catalog name)
          idx)
      (List.sort compare (Catalog.table_names (Core.catalog db)))
  in
  let handle_result = function
    | Error msg -> Fmt.pr "error: %s@." msg
    | Ok (e : Core.execution) ->
        Fmt.pr "%a@.(%a)@." Core.Relation.pp e.Core.result Core.pp_execution e
  in
  let strip s = String.trim s in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let after prefix s =
    strip (String.sub s (String.length prefix)
             (String.length s - String.length prefix))
  in
  (* [keyword "EXPLAIN" s] — case-insensitive leading word of [s] *)
  let keyword word s =
    let n = String.length word in
    String.length s > n
    && String.uppercase_ascii (String.sub s 0 n) = word
    && s.[n] = ' '
  in
  let explain ~analyze sql =
    match
      Core.explain_query ~strategy:!strategy ~analyze
        ?trace:(trace_sink false) db sql
    with
    | Ok text -> Fmt.pr "%s@." text
    | Error msg -> Fmt.pr "error: %s@." msg
  in
  let rec loop () =
    Fmt.pr "nestsql> %!";
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
        let line = strip line in
        if line = "" then loop ()
        else if line = "\\quit" || line = "\\q" then ()
        else if line = "\\tables" then (show_tables (); loop ())
        else if starts_with "\\strategy" line then begin
          (match Core.strategy_of_string (after "\\strategy" line) with
          | Some s -> strategy := s
          | None ->
              Fmt.pr "unknown strategy %s (want auto, nested, transformed \
                      or batched)@."
                (after "\\strategy" line));
          loop ()
        end
        else if starts_with "\\tree" line then begin
          (match Core.query_tree db (after "\\tree" line) with
          | Ok tree -> Fmt.pr "%a" Optimizer.Query_tree.pp tree
          | Error msg -> Fmt.pr "error: %s@." msg);
          loop ()
        end
        else if starts_with "\\transform" line then begin
          (match Core.transform_traced db (after "\\transform" line) with
          | Ok (program, steps) ->
              List.iteri (fun i s -> Fmt.pr "%d. %s@." (i + 1) s) steps;
              Fmt.pr "%a@." Optimizer.Program.pp program
          | Error msg -> Fmt.pr "error: %s@." msg);
          loop ()
        end
        else if starts_with "\\explain" line then begin
          explain ~analyze:false (after "\\explain" line);
          loop ()
        end
        else if keyword "EXPLAIN" line then begin
          let rest = after "EXPLAIN" line in
          if keyword "ANALYZE" rest then
            explain ~analyze:true (after "ANALYZE" rest)
          else explain ~analyze:false rest;
          loop ()
        end
        else if keyword "LINT" line then begin
          (match Core.lint_query db (after "LINT" line) with
          | [] -> Fmt.pr "no diagnostics@."
          | diags -> Fmt.pr "%s" (Analysis.Diagnostics.list_to_string diags));
          loop ()
        end
        else if keyword "CHECK" line then begin
          (match Core.check_source db (after "CHECK" line) with
          | Ok reports -> List.iteri print_check_report reports
          | Error msg -> Fmt.pr "error: %s@." msg);
          loop ()
        end
        else if Core.is_create_index line then begin
          (match Core.execute_create_index db line with
          | Ok msg -> Fmt.pr "%s@." msg
          | Error msg -> Fmt.pr "error: %s@." msg);
          loop ()
        end
        else if starts_with "\\compare" line then begin
          (match Core.compare_strategies db (after "\\compare" line) with
          | Ok c ->
              Fmt.pr "%a@." Core.pp_execution c.Core.nested;
              (match c.Core.transformed with
              | Some t -> Fmt.pr "%a@." Core.pp_execution t
              | None -> Fmt.pr "transformation: not applicable@.");
              Fmt.pr "agree: %b@." c.Core.agree
          | Error msg -> Fmt.pr "error: %s@." msg);
          loop ()
        end
        else if starts_with "\\" line then begin
          Fmt.pr "unknown command %s@." line;
          loop ()
        end
        else begin
          handle_result
            (Core.run ~strategy:!strategy ?trace:(trace_sink false) db line);
          loop ()
        end)
  in
  loop ()

(* ---------------- serve / client --------------------------------------- *)

(* Address options shared by `serve` and `client`: a Unix-domain socket
   path, or host:port TCP. *)

let socket_opt =
  let doc = "Unix-domain socket path to listen/connect on." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_opt =
  let doc = "TCP port to listen/connect on (with --host)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"N" ~doc)

let host_opt =
  let doc = "TCP host for --port." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let sockaddr_of_flags socket host port =
  match (socket, port) with
  | Some path, None -> Unix.ADDR_UNIX path
  | None, Some port -> (
      let addr =
        match Unix.inet_addr_of_string host with
        | addr -> addr
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } -> die ("cannot resolve " ^ host)
            | h -> h.Unix.h_addr_list.(0)
            | exception Not_found -> die ("cannot resolve " ^ host))
      in
      Unix.ADDR_INET (addr, port))
  | Some _, Some _ -> die "--socket and --port are mutually exclusive"
  | None, None -> die "need --socket PATH or --port N (see docs/SERVER.md)"

let sockaddr_to_string = function
  | Unix.ADDR_UNIX path -> "unix:" ^ path
  | Unix.ADDR_INET (addr, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port

let serve_cmd load_dir fixture tables buffer_pages page_bytes indexes socket host port
    cache_capacity =
  let db = setup_db load_dir fixture tables buffer_pages page_bytes indexes in
  let sockaddr = sockaddr_of_flags socket host port in
  let server = Server.create ~cache_capacity db in
  Server.serve server sockaddr ~on_ready:(fun () ->
      Fmt.pr "nestsql: listening on %s@." (sockaddr_to_string sockaddr))

(* One response line, pretty-printed unless --raw: result rows as an
   aligned table plus a one-line summary, EXPLAIN text verbatim. *)
let print_response ~raw line =
  let fail () =
    Fmt.pr "%s@." line;
    false
  in
  match Json.parse line with
  | Error _ -> fail ()
  | Ok j -> (
      let ok = Json.member "ok" j = Some (Json.Bool true) in
      (if raw then Fmt.pr "%s@." line
       else
         match (Json.member "columns" j, Json.member "rows" j) with
         | Some (Json.List cols), Some (Json.List rows) ->
             let cell = function
               | Json.Null -> "NULL"
               | Json.Str s -> s
               | v -> Json.to_string v
             in
             Fmt.pr "%s@." (String.concat " | " (List.map cell cols));
             List.iter
               (function
                 | Json.List cells ->
                     Fmt.pr "%s@." (String.concat " | " (List.map cell cells))
                 | v -> Fmt.pr "%s@." (Json.to_string v))
               rows;
             let field name =
               match Json.member name j with
               | Some (Json.Str s) -> s
               | Some v -> Json.to_string v
               | None -> "?"
             in
             Fmt.pr "(%s rows, cache %s, strategy %s, %s ms)@."
               (field "row_count") (field "cache") (field "strategy")
               (field "wall_ms")
         | _ -> (
             match Json.member "text" j with
             | Some (Json.Str text) when ok -> Fmt.pr "%s@." text
             | _ -> Fmt.pr "%s@." line));
      ok)

let client_cmd socket host port mode strategy raw exprs jsons =
  let sockaddr = sockaddr_of_flags socket host port in
  (* validate the knob flags before connecting; they apply to every -e *)
  let knob_fields =
    List.filter_map Fun.id
      [
        Option.map
          (fun m ->
            ("mode", Json.Str (Optimizer.Planner.mode_name (mode_of_flag m))))
          mode;
        Option.map
          (fun (s : string) ->
            ("strategy", Json.Str (Core.strategy_name (strategy_of_flag s))))
          strategy;
      ]
  in
  let requests =
    List.map
      (fun sql ->
        Json.to_string
          (Json.Obj
             (("op", Json.Str "query") :: ("sql", Json.Str sql) :: knob_fields)))
      exprs
    @ jsons
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  (match Unix.connect fd sockaddr with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) ->
      die
        (Printf.sprintf "cannot connect to %s: %s" (sockaddr_to_string sockaddr)
           (Unix.error_message err)));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let failed = ref false in
  let round_trip line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    match input_line ic with
    | response -> if not (print_response ~raw response) then failed := true
    | exception End_of_file ->
        failed := true;
        Fmt.epr "error: server closed the connection@."
  in
  (match requests with
  | [] ->
      (* no -e/--json: forward stdin lines (raw protocol) *)
      let rec pump () =
        match input_line stdin with
        | exception End_of_file -> ()
        | "" -> pump ()
        | line ->
            round_trip line;
            pump ()
      in
      pump ()
  | requests -> List.iter round_trip requests);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  if !failed then exit 1

(* ---------------- wiring ---------------------------------------------- *)

let common f =
  Term.(f $ load_dir $ fixture $ tables $ buffer_pages $ page_bytes $ indexes)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let cmds =
  [
    cmd "run" "Run a query (auto strategy by default)."
      Term.(common (const run_cmd) $ strategy $ mode $ exec_trace $ sql);
    cmd "compare" "Run both strategies; report results and page I/O."
      Term.(common (const compare_cmd) $ sql);
    cmd "classify" "Print Kim's nesting classification."
      Term.(common (const classify_cmd) $ sql);
    cmd "transform" "Print the canonical program produced by NEST-G."
      Term.(common (const transform_cmd) $ trace $ sql);
    cmd "tree" "Print the query-block tree (the paper's Figure 2 view)."
      Term.(common (const tree_cmd) $ sql);
    cmd "explain"
      "Print annotated physical plans; --analyze adds runtime metrics; \
       under --strategy nested or batched, each subquery's plan runs under \
       its Apply (per row or per key) and --analyze shows its loops=."
      Term.(
        common (const explain_cmd) $ analyze $ strategy $ mode $ exec_trace
        $ sql);
    (let json =
       let doc = "Emit diagnostics as a JSON array (schema in docs/LINT.md)." in
       Arg.(value & flag & info [ "json" ] ~doc)
     in
     let file =
       let doc =
         "Query file to lint ('-' for stdin); one or more ';'-separated \
          queries.  '--' comments are allowed; a '-- fixture: NAME' pragma \
          selects the database."
       in
       Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
     in
     let severity =
       let doc =
         "Exit-1 threshold: error (default) fails only on error-severity \
          diagnostics; warning also fails on warnings."
       in
       Arg.(value & opt string "error" & info [ "severity" ] ~docv:"LEVEL" ~doc)
     in
     cmd "lint"
       "Lint nested queries: Kim classification cross-check, the paper's \
        bug-class warnings (NQ001-NQ003), hygiene checks, and structural \
        verification of the transformed program.  Exits 1 past the \
        --severity threshold (default: any error)."
       Term.(common (const lint_cmd) $ json $ severity $ file));
    (let json =
       let doc =
         "Emit the report as one JSON object (schema in docs/LINT.md)."
       in
       Arg.(value & flag & info [ "json" ] ~doc)
     in
     let severity =
       let doc =
         "Exit-1 threshold: error (default) fails only on error-severity \
          diagnostics; warning also fails on warnings."
       in
       Arg.(value & opt string "error" & info [ "severity" ] ~docv:"LEVEL" ~doc)
     in
     let bound =
       let doc =
         "Counterexample search bound: databases with up to $(docv) rows \
          per relation are enumerated."
       in
       Arg.(value & opt int 2 & info [ "bound" ] ~docv:"K" ~doc)
     in
     let file =
       let doc =
         "Query file to check ('-' for stdin); one or more ';'-separated \
          queries, or an oracle repro file ('-- table' data lines select \
          the database from the file itself).  A '-- fixture: NAME' pragma \
          selects the database otherwise."
       in
       Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
     in
     cmd "check"
       "Semantic checker: lower each query as every strategy runs it \
        (nested iteration, batched bindings and the transformed program in \
        both planner modes) and type-check every physical plan \
        (NQ110-NQ115), then search for a bounded counterexample to the \
        rewrite (NQ120-NQ122), printing a bounded-equivalence certificate \
        or a replayable witness database.  Exits 1 past the --severity \
        threshold."
       Term.(common (const check_cmd) $ json $ severity $ bound $ file));
    (let seed =
       let doc = "Random seed (the same seed reproduces the same run)." in
       Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
     in
     let count =
       let doc = "Number of random cases to generate." in
       Arg.(value & opt int 500 & info [ "n"; "count" ] ~docv:"N" ~doc)
     in
     let write_dir =
       let doc =
         "Write each shrunk discrepancy as a repro file into $(docv) \
          (created if missing) instead of printing it."
       in
       Arg.(value & opt (some string) None
            & info [ "write-repros" ] ~docv:"DIR" ~doc)
     in
     let replays =
       let doc =
         "Replay a repro file (or every *.sql in a directory) through the \
          full execution matrix instead of fuzzing; repeatable."
       in
       Arg.(value & opt_all string [] & info [ "replay" ] ~docv:"PATH" ~doc)
     in
     let quiet =
       let doc = "Suppress per-case progress on stderr." in
       Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
     in
     let refusals_below =
       let doc =
         "Exit 1 unless the total refusal count is strictly below $(docv) \
          — a coverage ratchet for CI (each new strategy must make more \
          grid cells answer, never fewer)."
       in
       Arg.(
         value
         & opt (some int) None
         & info [ "assert-refusals-below" ] ~docv:"N" ~doc)
     in
     let check =
       let doc =
         "Also run the static checker over every generated case: typed \
          plan validation plus the bounded counterexample search at k=2; \
          an error-severity finding counts as a discrepancy even when all \
          matrix cells agree."
       in
       Arg.(value & flag & info [ "check" ] ~doc)
     in
     cmd "fuzz"
       "Differential oracle: random nested queries over random data \
        (NULLs, duplicate keys, empty relations), every rewrite / batched \
        x planner mode x executor cell cross-checked against nested \
        iteration; discrepancies are shrunk to minimal repros.  Exits 1 \
        if any cell disagrees."
       Term.(
         const fuzz_cmd $ seed $ count $ write_dir $ replays $ quiet
         $ refusals_below $ check));
    cmd "tables" "List the tables of the selected database."
      (common Term.(const tables_cmd));
    cmd "repl" "Interactive shell (SQL plus backslash commands)."
      (common Term.(const repl_cmd));
    (let cache_capacity =
       let doc = "Shared plan-cache capacity (entries)." in
       Arg.(value & opt int 128 & info [ "cache-capacity" ] ~docv:"N" ~doc)
     in
     cmd "serve"
       "Long-lived server: sessions over a shared database and LRU plan \
        cache, one JSON object per line in each direction (verbs: query, \
        prepare, execute, explain, lint, load, stats, close — see \
        docs/SERVER.md).  Listens on --socket PATH or --host/--port."
       Term.(
         common (const serve_cmd) $ socket_opt $ host_opt $ port_opt
         $ cache_capacity));
    (let expr =
       let doc =
         "Send a query statement (repeatable; sent in order, before --json \
          requests)."
       in
       Arg.(value & opt_all string [] & info [ "e"; "execute" ] ~docv:"SQL" ~doc)
     in
     let json =
       let doc =
         "Send a raw protocol request line, e.g. '{\"op\": \"stats\"}' \
          (repeatable)."
       in
       Arg.(value & opt_all string [] & info [ "json" ] ~docv:"REQUEST" ~doc)
     in
     let raw =
       let doc = "Print raw JSON response lines instead of tables." in
       Arg.(value & flag & info [ "raw" ] ~doc)
     in
     let mode_opt =
       let doc = "Planner mode for -e queries: paper1987 or hybrid." in
       Arg.(value & opt (some string) None & info [ "m"; "mode" ] ~docv:"MODE" ~doc)
     in
     let strategy_opt =
       let doc = "Strategy for -e queries: auto, nested, transformed or batched." in
       Arg.(
         value & opt (some string) None & info [ "s"; "strategy" ] ~docv:"S" ~doc)
     in
     cmd "client"
       "Connect to a nestsql server and send statements: each -e SQL as a \
        query request, each --json line verbatim; with neither, forward \
        raw request lines from stdin.  Exits 1 if any response is an \
        error."
       Term.(
         const client_cmd $ socket_opt $ host_opt $ port_opt $ mode_opt
         $ strategy_opt $ raw $ expr $ json));
  ]

let () =
  let info =
    Cmd.info "nestsql" ~version:Core.version
      ~doc:
        "Nested SQL query unnesting (Ganski & Wong, SIGMOD 1987 \
         reproduction)."
  in
  exit (Cmd.eval (Cmd.group info cmds))

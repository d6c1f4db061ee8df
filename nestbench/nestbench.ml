(* nestbench — the workload benchmark of the nested-query optimizer.

   One process measures one workload: a seeded, closed-loop stream of SQL
   statements, each taken from text to checked result rows, for a fixed
   number of seconds.  [fit], [spill] and [crossover] run in process
   through [Core.run]; [serve] drives a spawned [nestsql serve] over a
   Unix socket with two connections multiplexed by [Unix.select].

   With [--trace 1] the process measures the layers instead: it replays a
   prefix of the same stream through the layers' public functions, one
   span per call, and reports per-layer metrics and a span file.

   nestbench/README.md documents the workloads, the metrics and the span
   schema; nestbench/run.py builds the program and runs it. *)

module Value = Relalg.Value
module Relation = Relalg.Relation
module Row = Relalg.Row
module Schema = Relalg.Schema
module Pager = Storage.Pager
module Catalog = Storage.Catalog
module Planner = Optimizer.Planner
module P = Server.Protocol

let now = Unix.gettimeofday

(* Results, span files and the serve socket, relative to the checkout. *)
let out_dir = "nestbench/out"

(* ---------------- options -------------------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;  (* table sizes relative to the full workload *)
  nestsql : string;  (* the server binary the [serve] workload spawns *)
}

let usage () =
  prerr_endline
    "usage: nestbench --workload fit|spill|crossover|serve [--seed N] \
     [--seconds S] [--trace 0|1] [--scale F] [--nestsql PATH]";
  exit 2

let parse_args argv =
  let num conv v = match conv v with Some x -> x | None -> usage () in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest -> go { o with seed = num int_of_string_opt v } rest
    | "--seconds" :: v :: rest ->
        go { o with seconds = num float_of_string_opt v } rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        go { o with trace = v = "1" } rest
    | "--scale" :: v :: rest ->
        go { o with scale = num float_of_string_opt v } rest
    | "--nestsql" :: v :: rest -> go { o with nestsql = v } rest
    | _ -> usage ()
  in
  go
    {
      workload = "";
      seed = 42;
      seconds = 10.;
      trace = false;
      scale = 1.;
      nestsql = "_build/default/bin/nestsql.exe";
    }
    (List.tl (Array.to_list argv))

(* ---------------- data ----------------------------------------------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [n] cells with exact marginals: NULL in [null_pct] percent of them, the
   others spread evenly over [values].  Exact marginals keep statement
   costs close from one seed to the next.  [shuffled] cells come in a
   seeded order, so the seed decides which values meet in a row; the
   others cycle through [values] in order, which fixes where each key's
   rows sit on the pages, and so the page traffic of a probe, whatever
   the seed. *)
let column ?(null_pct = 0) ?(shuffled = true) rng n values =
  let nulls = n * null_pct / 100 and k = Array.length values in
  let cells =
    Array.init n (fun i ->
        if i < nulls then Value.Null
        else if shuffled then values.((i - nulls) * k / (n - nulls))
        else values.((i - nulls) mod k))
  in
  if shuffled then shuffle rng cells;
  cells

let ints lo hi = Array.init (hi - lo + 1) (fun i -> Value.Int (lo + i))

(* SHIPDATE's domain: days 1-28 of every month of 1975-1984 *)
let dates =
  Array.init (10 * 12 * 28) (fun i ->
      Value.Date
        {
          year = 1975 + (i / 336);
          month = 1 + (i / 28 mod 12);
          day = 1 + (i mod 28);
        })

let table rel columns =
  let n =
    match columns with (_, _, cells) :: _ -> Array.length cells | [] -> 0
  in
  Relation.of_values ~rel
    (List.map (fun (name, ty, _) -> (name, ty)) columns)
    (List.init n (fun i -> List.map (fun (_, _, cells) -> cells.(i)) columns))

(* The PARTS(PNUM, QOH) and SUPPLY(PNUM, QUAN, SHIPDATE) of the paper's
   examples. *)
let parts rng ~n ~key_range =
  table "PARTS"
    [
      ("PNUM", Value.Tint, column ~shuffled:false rng n (ints 1 key_range));
      ("QOH", Value.Tint, column rng n (ints 0 4));
    ]

let supply ?null_pct rng ~n ~key_range =
  table "SUPPLY"
    [
      ( "PNUM",
        Value.Tint,
        column ?null_pct ~shuffled:false rng n (ints 1 key_range) );
      ("QUAN", Value.Tint, column ?null_pct rng n (ints 0 9));
      ("SHIPDATE", Value.Tdate, column ?null_pct rng n dates);
    ]

let sized ~scale n =
  max 1 (int_of_float (Float.round (float_of_int n *. scale)))

(* ---------------- workloads ------------------------------------------ *)

type spec = {
  name : string;
  buffer_pages : int;  (* the paper's B *)
  mode : Planner.mode;
  engine : Exec.Plan.engine;
  tables : scale:float -> Random.State.t -> (string * Relation.t) list;
  indexes : (string * string) list;  (* (table, column) B-trees *)
  pool : (string * string) array;  (* (template, SQL): distinct statements *)
}

let page_bytes = 256

let instances template sql params =
  List.map (fun p -> (template, sql p)) params

(* Six templates x four parameters over PARTS/SUPPLY: Kim's type-N and
   type-J IN, the paper's Q2 (COUNT) and Q5 (MAX under a '<' correlation;
   the outer block is cut to PNUM <= 3, or Q5 alone takes most of the
   run), NOT EXISTS and >= ALL.  The dates fall in SUPPLY's first months,
   so inner blocks are selective and COUNT can equal QOH. *)
let parts_supply_pool =
  let dates = [ "2-1-75"; "4-1-75"; "7-1-75"; "1-1-76" ] in
  let early = [ "2-1-75"; "3-1-75"; "4-1-75"; "5-1-75" ] in
  Array.of_list
    (List.concat
       [
         instances "N-in"
           (Printf.sprintf
              "SELECT PNUM FROM PARTS WHERE PNUM IN (SELECT PNUM FROM SUPPLY \
               WHERE SHIPDATE < '%s')")
           dates;
         instances "J-in"
           (Printf.sprintf
              "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY \
               WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '%s')")
           dates;
         instances "JA-count"
           (Printf.sprintf
              "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) FROM \
               SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '%s')")
           early;
         instances "JA-max-lt"
           (Printf.sprintf
              "SELECT PNUM FROM PARTS WHERE PNUM <= 3 AND QOH = (SELECT \
               MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM < PARTS.PNUM AND QUAN \
               <= %d)")
           [ 1; 2; 3; 4 ];
         instances "not-exists"
           (Printf.sprintf
              "SELECT PNUM FROM PARTS WHERE NOT EXISTS (SELECT PNUM FROM \
               SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '%s')")
           early;
         instances "ge-all"
           (Printf.sprintf
              "SELECT PNUM FROM PARTS WHERE QOH >= ALL (SELECT QUAN FROM \
               SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '%s')")
           early;
       ])

let parts_supply ~n_supply ~scale rng =
  let parts = parts rng ~n:(sized ~scale 100) ~key_range:100 in
  let supply = supply rng ~n:(sized ~scale n_supply) ~key_range:100 in
  [ ("PARTS", parts); ("SUPPLY", supply) ]

(* The outer tables of the crossover: the same correlated templates over
   16, 64 and 256 outer rows straddle Auto's switch from indexed nested
   iteration to the transformed program.  Their keys come from 1-128, so
   P256 repeats each key and the refused >= ALL has bindings to share,
   which is when Auto batches. *)
let outer_tables = [ ("P16", 16); ("P64", 64); ("P256", 256) ]
let outer_keys = 128

let crossover_pool =
  let per_outer template sql params =
    List.concat_map
      (fun (t, _) -> List.map (fun p -> (template, sql t t p)) params)
      outer_tables
  in
  Array.of_list
    (List.concat
       [
         per_outer "J-in"
           (Printf.sprintf
              "SELECT PNUM FROM %s WHERE QOH IN (SELECT QUAN FROM SUPPLY WHERE \
               SUPPLY.PNUM = %s.PNUM AND QUAN >= %d)")
           [ 0; 2 ];
         per_outer "JA-count"
           (Printf.sprintf
              "SELECT PNUM FROM %s WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY \
               WHERE SUPPLY.PNUM = %s.PNUM AND SHIPDATE < '%s')")
           [ "1-15-75"; "2-1-75" ];
         per_outer "not-exists"
           (Printf.sprintf
              "SELECT PNUM FROM %s WHERE NOT EXISTS (SELECT PNUM FROM SUPPLY \
               WHERE SUPPLY.PNUM = %s.PNUM AND SHIPDATE < '%s')")
           [ "2-1-75"; "4-1-75" ];
         (* QUAN is nullable here, so the >= ALL rewrite is refused *)
         per_outer "ge-all"
           (Printf.sprintf
              "SELECT PNUM FROM %s WHERE QOH >= ALL (SELECT QUAN FROM SUPPLY \
               WHERE SUPPLY.PNUM = %s.PNUM AND QUAN >= %d)")
           [ 0; 5 ];
       ])

let crossover_tables ~scale rng =
  let supply =
    supply ~null_pct:10 rng ~n:(sized ~scale 10_000) ~key_range:1000
  in
  ("SUPPLY", supply)
  :: List.map
       (fun (name, n) -> (name, parts rng ~n ~key_range:outer_keys))
       outer_tables

(* [fit] and [spill] share data and statements and differ in the pool:
   SUPPLY is 1000 pages of 256 bytes, so 2048 pages hold it beside every
   statement's temps, and 32 pages make every strategy spill. *)
let specs =
  [
    {
      name = "fit";
      buffer_pages = 2048;
      mode = Planner.Hybrid;
      engine = Exec.Plan.Vectorized;
      tables = parts_supply ~n_supply:10_000;
      indexes = [];
      pool = parts_supply_pool;
    };
    {
      name = "spill";
      buffer_pages = 32;
      mode = Planner.Paper1987;
      engine = Exec.Plan.Tuple;
      tables = parts_supply ~n_supply:10_000;
      indexes = [];
      pool = parts_supply_pool;
    };
    {
      name = "crossover";
      buffer_pages = 256;
      mode = Planner.Paper1987;
      engine = Exec.Plan.Tuple;
      tables = crossover_tables;
      indexes = [ ("SUPPLY", "PNUM") ];
      pool = crossover_pool;
    };
    (* buffer pool, mode and engine are the server's: -B 64 and its
       defaults; the in-process replica of the traced run uses them too *)
    {
      name = "serve";
      buffer_pages = 64;
      mode = Planner.Paper1987;
      engine = Exec.Plan.Tuple;
      tables = parts_supply ~n_supply:1000;
      indexes = [ ("SUPPLY", "PNUM") ];
      pool = parts_supply_pool;
    };
  ]

let define db (name, rel) =
  Core.define_table db name
    (List.map
       (fun (c : Schema.column) -> (c.name, c.ty))
       (Schema.columns (Relation.schema rel)))
    (List.map Row.to_list (Relation.rows rel))

let build_db spec tables =
  let db = Core.create_db ~buffer_pages:spec.buffer_pages ~page_bytes () in
  List.iter (define db) tables;
  List.iter
    (fun (table, column) -> Core.create_index db table ~column)
    spec.indexes;
  db

let data_rng seed = Random.State.make [| seed |]
let stream_rng seed = Random.State.make [| seed; 1 |]

(* Shuffled rounds over the pool: each distinct statement once per round in
   a seeded order, so a run's mix matches the pool up to its last round. *)
let stream rng n =
  let order = Array.init n Fun.id and pos = ref n in
  fun () ->
    if !pos = n then begin
      shuffle rng order;
      pos := 0
    end;
    let id = order.(!pos) in
    incr pos;
    id

(* ---------------- measurement helpers -------------------------------- *)

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b
let mean xs = ratio (sum xs) (float_of_int (List.length xs))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs and n = List.length xs in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest rank *)
let percentile xs p =
  let a = sorted xs and n = List.length xs in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

(* Peak RSS covers the measured statements only: the high-water mark is
   reset after set-up, and read once [rss_rounds] rounds of statements have
   run, or at the end of a shorter run.  The system keeps some temporary
   pages for the life of the process, so a reading at the end would grow
   with the statement count, and so with speed. *)
let rss_rounds = 4

(* Linux: writing 5 to clear_refs resets the VmHWM high-water mark. *)
let reset_peak_rss pid =
  match open_out (Printf.sprintf "/proc/%s/clear_refs" pid) with
  | exception Sys_error _ -> ()
  | oc -> (
      try
        output_string oc "5";
        close_out oc
      with Sys_error _ -> close_out_noerr oc)

(* Set-up runs [reps] times and reports the median; the last result is the
   one measured, the others are [discard]ed outside the timed interval. *)
let timed_setups ?(discard = ignore) reps f =
  let rec go k times =
    let t0 = now () in
    let x = f () in
    let times = (now () -. t0) :: times in
    if k <= 1 then (median times, x)
    else begin
      discard x;
      go (k - 1) times
    end
  in
  go reps []

(* Runs [f], logging its duration to stderr. *)
let phase name f =
  let t0 = now () in
  let x = f () in
  Printf.eprintf "nestbench: %s %.2f s\n%!" name (now () -. t0);
  x

(* The multiset of result rows, as one comparable value. *)
let digest rel =
  Relation.sorted_rows rel
  |> List.map (fun row ->
         String.concat "\x1f" (List.map Value.to_string (Row.to_list row)))
  |> String.concat "\x1e" |> Digest.string

let guard f =
  match f () with r -> r | exception e -> Error (Printexc.to_string e)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (* name, unit, value *)
}

let outcome_json o =
  P.Obj
    [
      ("correct", P.Bool o.correct);
      ("attempted", P.Int o.attempted);
      ("failed", P.Int o.failed);
      ( "metrics",
        P.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, P.Obj [ ("value", P.Float v); ("unit", P.Str unit) ]))
             o.metrics) );
    ]

let write_json path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (P.to_string json);
      output_char oc '\n')

let end_to_end ~latencies ~wall ~io ~setup_s ~rss =
  let n = float_of_int (List.length latencies) in
  [
    ("qps", "stmt/s", n /. wall);
    ("latency_p50_ms", "ms", 1e3 *. median latencies);
    ("latency_p95_ms", "ms", 1e3 *. percentile latencies 0.95);
    ("page_io_per_stmt", "io/stmt", float_of_int io /. n);
    ("setup_s", "s", setup_s);
    ("peak_rss_mb", "MB", rss);
  ]

(* ---------------- in-process statements ------------------------------ *)

type first = { f_rel : Relation.t; f_digest : Digest.t; f_via : Core.via }

let run_core spec db sql =
  guard (fun () -> Core.run ~mode:spec.mode ~engine:spec.engine db sql)

(* The system keeps the file behind every external sort and every
   materialized nested-loop inner on its simulated disk for the life of
   the database, so memory grows with every statement (about 130 KB a
   statement on [fit]).  In-process runs therefore rebuild the database
   from the same tables every [reload_rounds] rounds, between statements
   and outside every timed interval. *)
let reload_rounds = 16

type live = {
  spec : spec;
  data : (string * Relation.t) list;
  mutable db : Core.db;
  mutable ran : int;  (* statements run on [db] *)
}

let live spec data = { spec; data; db = build_db spec data; ran = 0 }

(* The database the next [runs] statement executions use. *)
let next_db ?(runs = 1) l =
  if l.ran >= reload_rounds * Array.length l.spec.pool then begin
    l.db <- build_db l.spec l.data;
    l.ran <- 0;
    Gc.full_major ()
  end;
  l.ran <- l.ran + runs;
  l.db

(* One untimed pass over the distinct statements: it warms the pool, and
   its results are the first results every later occurrence must match. *)
let first_results spec db =
  Array.map
    (fun (_, sql) ->
      match run_core spec db sql with
      | Ok (e : Core.execution) ->
          Some { f_rel = e.result; f_digest = digest e.result; f_via = e.via }
      | Error msg ->
          Printf.eprintf "nestbench: %s: %s\n%!" sql msg;
          None)
    spec.pool

(* The non-optimizing reference evaluator's answer. *)
let reference db sql =
  match Core.parse db sql with
  | Error _ -> None
  | Ok q -> (
      match Exec.Nested_iter.run (Core.catalog db) q with
      | r -> Some (q, r)
      | exception _ -> None)

let agrees (q, reference) got =
  Oracle.Matrix.results_agree ~q ~reference ~got

let report_wrong sql = Printf.eprintf "nestbench: wrong result for %s\n%!" sql

(* Per distinct statement: its first result exists and is right. *)
let check_firsts spec db firsts =
  Array.mapi
    (fun id f ->
      let sql = snd spec.pool.(id) in
      let ok =
        match (f, reference db sql) with
        | Some f, Some r -> agrees r f.f_rel
        | _ -> false
      in
      if not ok then report_wrong sql;
      ok)
    firsts

type sample = { id : int; lat : float; io : int; ok : bool }

let run_sample spec db firsts id =
  let t0 = now () in
  let r = run_core spec db (snd spec.pool.(id)) in
  let lat = now () -. t0 in
  (* the digest is taken outside the timed interval *)
  match (r, firsts.(id)) with
  | Ok e, Some f ->
      let ok = Digest.equal (digest e.Core.result) f.f_digest in
      { id; lat; io = Pager.total_io e.Core.io; ok }
  | Ok e, None -> { id; lat; io = Pager.total_io e.Core.io; ok = false }
  | Error _, _ -> { id; lat; io = 0; ok = false }

let timed_pass l firsts next ~seconds =
  let rss_after = rss_rounds * Array.length l.spec.pool in
  Gc.compact ();
  reset_peak_rss "self";
  let deadline = now () +. seconds in
  let rss = ref nan in
  let rec go k acc =
    if k = rss_after then rss := peak_rss_mb "self";
    if now () >= deadline then List.rev acc
    else go (k + 1) (run_sample l.spec (next_db l) firsts (next ()) :: acc)
  in
  let samples = go 0 [] in
  if Float.is_nan !rss then rss := peak_rss_mb "self";
  (samples, !rss)

(* Each template's share of the statement time. *)
let template_shares pool samples =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let t = fst pool.(s.id) in
      let v = Option.value ~default:0. (Hashtbl.find_opt tbl t) in
      Hashtbl.replace tbl t (v +. s.lat))
    samples;
  let total = sum (List.map (fun s -> s.lat) samples) in
  Hashtbl.fold (fun t v acc -> (t, P.Float (ratio v total)) :: acc) tbl []
  |> List.sort compare

let in_process_run opts spec =
  let setup_s, l =
    phase "set-up" (fun () ->
        timed_setups 5 (fun () ->
            live spec (spec.tables ~scale:opts.scale (data_rng opts.seed))))
  in
  let firsts = phase "warm-up" (fun () -> first_results spec l.db) in
  let next = stream (stream_rng opts.seed) (Array.length spec.pool) in
  let samples, rss =
    phase "measured pass" (fun () ->
        timed_pass l firsts next ~seconds:opts.seconds)
  in
  let good = phase "verification" (fun () -> check_firsts spec l.db firsts) in
  let failed =
    List.length (List.filter (fun s -> not (s.ok && good.(s.id))) samples)
  in
  let latencies = List.map (fun s -> s.lat) samples in
  let io = List.fold_left (fun a s -> a + s.io) 0 samples in
  ( {
      correct = failed = 0;
      attempted = List.length samples;
      failed;
      metrics = end_to_end ~latencies ~wall:(sum latencies) ~io ~setup_s ~rss;
    },
    [ ("templates", P.Obj (template_shares spec.pool samples)) ] )

(* ---------------- the serve workload --------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

let take_line c =
  let s = Buffer.contents c.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (i + 1) (String.length s - i - 1);
      Some (String.sub s 0 i)

let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> failwith "nestsql serve closed the connection"
  | n -> Buffer.add_subbytes c.buf c.chunk 0 n

let rec recv c =
  match take_line c with
  | Some line -> line
  | None ->
      fill c;
      recv c

let call c line =
  send c line;
  recv c

let response_ok line =
  match P.parse line with
  | Ok j -> P.member "ok" j = Some (P.Bool true)
  | Error _ -> false

type server = { pid : int; sock : string; conns : conn array }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> Some { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let stop_server s =
  Array.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    s.conns;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  try Sys.remove s.sock with Sys_error _ -> ()

(* The socket path is relative to the working directory, which keeps it
   short of the Unix-socket path limit wherever the checkout lives. *)
let spawn_server opts spec =
  let sock =
    Filename.concat out_dir
      (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process opts.nestsql
          [| opts.nestsql; "serve"; "-d"; "none"; "-B";
             string_of_int spec.buffer_pages; "--socket"; sock |]
          devnull devnull Unix.stderr)
  in
  let s = { pid; sock; conns = [||] } in
  let alive () = fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0 in
  let rec open_conns tries =
    match connect sock with
    | Some c0 -> (
        match connect sock with
        | Some c1 -> { s with conns = [| c0; c1 |] }
        | None ->
            stop_server { s with conns = [| c0 |] };
            failwith "nestsql serve refused a second connection")
    | None when tries > 0 && alive () ->
        Unix.sleepf 0.005;
        open_conns (tries - 1)
    | None ->
        stop_server s;
        failwith "nestsql serve did not start"
  in
  open_conns 4000

let request fields = P.to_string (P.Obj fields)
let stmt_name id = Printf.sprintf "s%d" id

let query_line ?(knobs = []) sql =
  request ([ ("op", P.Str "query"); ("sql", P.Str sql) ] @ knobs)

let prepare_line id sql =
  request
    [ ("op", P.Str "prepare"); ("name", P.Str (stmt_name id));
      ("sql", P.Str sql) ]

let execute_line id =
  request [ ("op", P.Str "execute"); ("name", P.Str (stmt_name id)) ]

let load_line (name, rel) =
  let column (c : Schema.column) =
    P.List
      [ P.Str c.name; P.Str (String.lowercase_ascii (Value.type_name c.ty)) ]
  in
  let row r = P.List (List.map P.json_of_value (Row.to_list r)) in
  request
    [
      ("op", P.Str "load");
      ("table", P.Str name);
      ( "columns",
        P.List (List.map column (Schema.columns (Relation.schema rel))) );
      ("rows", P.List (List.map row (Relation.rows rel)));
    ]

(* Three spellings of one statement that normalize to one plan-cache key:
   as written, with doubled spaces, and with lower-case keywords. *)
let spelling k sql =
  let words = String.split_on_char ' ' sql in
  let keywords =
    [ "SELECT"; "FROM"; "WHERE"; "AND"; "IN"; "NOT"; "EXISTS"; "ALL" ]
  in
  let lower w =
    let parens = if String.starts_with ~prefix:"(" w then 1 else 0 in
    let word = String.sub w parens (String.length w - parens) in
    if List.mem word keywords then
      String.sub w 0 parens ^ String.lowercase_ascii word
    else w
  in
  match k with
  | 0 -> sql
  | 1 -> String.concat "  " words
  | _ -> String.concat " " (List.map lower words)

(* Set-up as a deployment does it: spawn, load PARTS and SUPPLY, build the
   index, prepare every pool statement on both sessions.  Returns the
   request lines too, for the in-process replay of the traced run. *)
let setup_server opts spec tables =
  let s = spawn_server opts spec in
  let lines = ref [] in
  let setup conn line =
    lines := (conn, line, false) :: !lines;
    let resp = call s.conns.(conn) line in
    if not (response_ok resp) then failwith ("set-up request failed: " ^ resp)
  in
  match
    List.iter (fun t -> setup 0 (load_line t)) tables;
    List.iter
      (fun (t, c) ->
        setup 0 (query_line (Printf.sprintf "CREATE INDEX ON %s (%s)" t c)))
      spec.indexes;
    Array.iteri
      (fun id (_, sql) ->
        setup 0 (prepare_line id sql);
        setup 1 (prepare_line id sql))
      spec.pool
  with
  | () -> (s, List.rev !lines)
  | exception e ->
      stop_server s;
      raise e

type req = Load of int | Stmt of int * string

(* The request mix: every [load_every]th request replaces SUPPLY with the
   other data version, which invalidates the plan cache and rebuilds the
   index; of the rest, one in ten executes a statement prepared at set-up
   and the others send its text in one of the three spellings. *)
let load_every = 250

let requests rng spec =
  let n = Array.length spec.pool in
  let next = stream rng n in
  let queries =
    Array.init 3 (fun k ->
        Array.map (fun (_, sql) -> query_line (spelling k sql)) spec.pool)
  in
  let executes = Array.init n execute_line in
  let k = ref 0 and version = ref 0 in
  fun () ->
    incr k;
    if !k mod load_every = 0 then begin
      version := 1 - !version;
      Load !version
    end
    else
      let id = next () in
      if Random.State.int rng 10 = 0 then Stmt (id, executes.(id))
      else Stmt (id, queries.(Random.State.int rng 3).(id))

type served = {
  sv_id : int;
  sv_version : int;  (* SUPPLY version the statement ran against *)
  sv_lat : float;
  sv_resp : string;
}

type serve_log = {
  served : served list;
  loads : float list;  (* load latencies *)
  load_failures : int;
  wall : float;
  replay : (int * string * bool) list;  (* (connection, line, statement?) *)
  server_rss : float;  (* read as in [timed_pass] *)
}

(* The closed loop: each connection sends its next request as soon as its
   previous response arrives.  A load waits until both connections are
   idle, so every statement runs against a known data version. *)
let serve_loop s next ~supply_lines ~seconds ~rss_after =
  reset_peak_rss (string_of_int s.pid);
  let start = now () in
  let deadline = start +. seconds in
  let version = ref 0 and pending_load = ref None in
  let inflight = Array.make 2 None in
  let served = ref [] and n_served = ref 0 and server_rss = ref nan in
  let loads = ref [] and load_failures = ref 0 and replay = ref [] in
  let send_next conn =
    match next () with
    | Load v -> pending_load := Some v
    | Stmt (id, line) ->
        replay := (conn, line, true) :: !replay;
        let t0 = now () in
        send s.conns.(conn) line;
        inflight.(conn) <- Some (id, t0, !version)
  in
  let complete conn resp =
    let t1 = now () in
    match inflight.(conn) with
    | Some (id, t0, v) ->
        inflight.(conn) <- None;
        served :=
          { sv_id = id; sv_version = v; sv_lat = t1 -. t0; sv_resp = resp }
          :: !served;
        incr n_served;
        if !n_served = rss_after then
          server_rss := peak_rss_mb (string_of_int s.pid)
    | None -> ()
  in
  let load v =
    let line = supply_lines.(v) in
    replay := (0, line, false) :: !replay;
    let t0 = now () in
    let resp = call s.conns.(0) line in
    loads := (now () -. t0) :: !loads;
    if not (response_ok resp) then incr load_failures;
    version := v;
    pending_load := None
  in
  let rec loop () =
    let live = now () < deadline in
    if live then
      Array.iteri
        (fun conn slot ->
          if slot = None && !pending_load = None then send_next conn)
        inflight;
    let busy = List.filter (fun conn -> inflight.(conn) <> None) [ 0; 1 ] in
    match (busy, !pending_load) with
    | [], Some v when live ->
        load v;
        loop ()
    | [], _ -> ()
    | _ ->
        let fds = List.map (fun conn -> s.conns.(conn).fd) busy in
        let ready, _, _ = Unix.select fds [] [] 30. in
        if ready = [] then failwith "nestsql serve stalled";
        List.iter
          (fun conn ->
            let c = s.conns.(conn) in
            if List.mem c.fd ready then begin
              fill c;
              Option.iter (complete conn) (take_line c)
            end)
          busy;
        loop ()
  in
  loop ();
  if Float.is_nan !server_rss then
    server_rss := peak_rss_mb (string_of_int s.pid);
  {
    served = List.rev !served;
    loads = !loads;
    load_failures = !load_failures;
    wall = now () -. start;
    replay = List.rev !replay;
    server_rss = !server_rss;
  }

(* A response's rows rebuilt at the reference result's column types, and
   its page I/O. *)
let decode schema resp =
  match P.parse resp with
  | Error e -> Error e
  | Ok j -> (
      match (P.member "ok" j, P.member "rows" j, P.member "io" j) with
      | Some (P.Bool true), Some (P.List rows), Some io -> (
          let count k =
            match P.member k io with Some (P.Int n) -> n | _ -> 0
          in
          let cols = Schema.columns schema in
          let cell (c : Schema.column) v =
            match P.value_of_json c.ty v with
            | Ok v -> v
            | Error e -> failwith e
          in
          let row = function
            | P.List cells when List.length cells = List.length cols ->
                List.map2 cell cols cells
            | _ -> failwith "malformed row"
          in
          match List.map row rows with
          | rows ->
              Ok
                ( Relation.of_values ~rel:"RESULT"
                    (List.map (fun (c : Schema.column) -> (c.name, c.ty)) cols)
                    rows,
                  count "physical_reads" + count "physical_writes" )
          | exception Failure e -> Error e)
      | _ -> Error resp)

(* Checks every served statement: the first result of each statement on
   each data version against the reference evaluator on an in-process copy
   of that version, every later one against the first one's digest.
   Returns the failure count and the statements' total page I/O. *)
let check_served spec ~versions served =
  let refs = Hashtbl.create 64 and firsts = Hashtbl.create 64 in
  let reference_of ((id, v) as key) =
    match Hashtbl.find_opt refs key with
    | Some r -> r
    | None ->
        let r = reference versions.(v) (snd spec.pool.(id)) in
        Hashtbl.replace refs key r;
        r
  in
  List.fold_left
    (fun (failed, io) sv ->
      let key = (sv.sv_id, sv.sv_version) in
      match reference_of key with
      | None -> (failed + 1, io)
      | Some ((_, ref_rel) as r) -> (
          match decode (Relation.schema ref_rel) sv.sv_resp with
          | Error e ->
              Printf.eprintf "nestbench: failed request: %s\n%!" e;
              (failed + 1, io)
          | Ok (got, stmt_io) ->
              let d = digest got in
              let ok =
                match Hashtbl.find_opt firsts key with
                | Some (d0, good) -> good && Digest.equal d d0
                | None ->
                    let good = agrees r got in
                    if not good then report_wrong (snd spec.pool.(sv.sv_id));
                    Hashtbl.replace firsts key (d, good);
                    good
              in
              ((if ok then failed else failed + 1), io + stmt_io)))
    (0, 0) served

(* Base tables plus the second SUPPLY version, all from the seed. *)
let serve_data opts spec =
  let rng = data_rng opts.seed in
  let tables = spec.tables ~scale:opts.scale rng in
  let supply1 = supply rng ~n:(sized ~scale:opts.scale 1000) ~key_range:100 in
  (tables, [| List.assoc "SUPPLY" tables; supply1 |])

let version_dbs spec tables supplies =
  Array.map
    (fun s ->
      build_db spec
        (List.map (fun (n, r) -> (n, if n = "SUPPLY" then s else r)) tables))
    supplies

(* Set-up [reps] times (all but the last server stopped at once), then the
   closed loop on the last one.  Returns the set-up median, the loop's log
   and the set-up request lines. *)
let socket_run opts spec tables supplies ~seconds ~reps =
  (* a dead server must surface as an error, not end the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let setup_s, (s, setup_lines) =
    timed_setups reps
      ~discard:(fun (s, _) -> stop_server s)
      (fun () -> setup_server opts spec tables)
  in
  Fun.protect
    ~finally:(fun () -> stop_server s)
    (fun () ->
      let supply_lines =
        Array.map (fun r -> load_line ("SUPPLY", r)) supplies
      in
      let next = requests (stream_rng opts.seed) spec in
      let rss_after = rss_rounds * Array.length spec.pool in
      let log = serve_loop s next ~supply_lines ~seconds ~rss_after in
      (setup_s, log, setup_lines))

let serve_run opts spec =
  let tables, supplies = serve_data opts spec in
  let setup_s, log, _ =
    socket_run opts spec tables supplies ~seconds:opts.seconds ~reps:3
  in
  let failed, io =
    check_served spec ~versions:(version_dbs spec tables supplies) log.served
  in
  let failed = failed + log.load_failures in
  let latencies = List.map (fun sv -> sv.sv_lat) log.served in
  let samples =
    List.map
      (fun sv -> { id = sv.sv_id; lat = sv.sv_lat; io = 0; ok = true })
      log.served
  in
  let load_p50 = 1e3 *. median log.loads in
  Printf.printf "load latency p50: %.3f ms over %d loads\n" load_p50
    (List.length log.loads);
  ( {
      correct = failed = 0;
      attempted = List.length log.served + List.length log.loads;
      failed;
      metrics =
        end_to_end ~latencies ~wall:log.wall ~io ~setup_s ~rss:log.server_rss;
    },
    [
      ("templates", P.Obj (template_shares spec.pool samples));
      ("load_latency_p50_ms", P.Float load_p50);
      ("loads", P.Int (List.length log.loads));
    ] )

(* ---------------- tracing -------------------------------------------- *)

type span = {
  sp_name : string;  (* layer.operation *)
  sp_stmt : int;  (* position of the statement in the replayed sequence *)
  sp_id : int;
  sp_parent : int;  (* -1 for a statement's root span *)
  sp_start : float;
  mutable sp_end : float;
  mutable sp_io : Pager.stats;  (* pager traffic inside the span *)
}

type tracer = {
  mutable pager : Pager.t;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable parent : int;
  mutable stmt : int;
}

let span tr name f =
  let before = Pager.snapshot tr.pager in
  let s =
    {
      sp_name = name;
      sp_stmt = tr.stmt;
      sp_id = tr.next_id;
      sp_parent = tr.parent;
      sp_start = now ();
      sp_end = nan;
      sp_io = Pager.diff_since tr.pager before;
    }
  in
  tr.next_id <- tr.next_id + 1;
  tr.spans <- s :: tr.spans;
  tr.parent <- s.sp_id;
  Fun.protect
    ~finally:(fun () ->
      s.sp_end <- now ();
      s.sp_io <- Pager.diff_since tr.pager before;
      tr.parent <- s.sp_parent)
    f

type traced = { t_rel : Relation.t; t_via : Core.via; t_temps : int }

let is_error (d : Analysis.Diagnostics.t) =
  d.severity = Analysis.Diagnostics.Error

(* [Core.run]'s Auto ladder rebuilt from public calls, one span per layer
   call: indexed nested iteration when its estimate undercuts the
   transformed floor; else transform, verify and run the program; else
   batched or nested iteration, as [Estimate.prefer_batched] decides. *)
let traced_run tr spec db sql =
  span tr "core.stmt" @@ fun () ->
  guard @@ fun () ->
  match span tr "sql.parse" (fun () -> Core.parse db sql) with
  | Error _ as e -> e
  | Ok q -> (
      let catalog = Core.catalog db in
      let p = Core.prepare_query db q in
      let { mode; engine; _ } = spec in
      let nested () =
        let rel =
          span tr "exec.nested" (fun () -> Exec.Sysr_iteration.run catalog q)
        in
        Ok { t_rel = rel; t_via = Core.Via_nested; t_temps = 0 }
      in
      let fallback () =
        let batched =
          span tr "optimizer.choose" (fun () ->
              Optimizer.Estimate.prefer_batched catalog q)
        in
        if not batched then nested ()
        else
          match
            span tr "exec.batched" (fun () ->
                Optimizer.Batched_nest.run ~mode ~engine catalog q)
          with
          | r ->
              let rel = r.Optimizer.Batched_nest.relation in
              Ok { t_rel = rel; t_via = Core.Via_batched; t_temps = 0 }
          | exception
              (Optimizer.Batched_nest.Unsupported _ | Planner.Planning_error _)
            ->
              nested ()
      in
      let choice =
        span tr "optimizer.choose" (fun () -> Core.indexed_nested_choice db q)
      in
      if choice <> None then nested ()
      else
        match
          span tr "optimizer.transform" (fun () -> Lazy.force p.Core.program)
        with
        | Error _ -> fallback ()
        | Ok program -> (
            let refused =
              span tr "analysis.verify" (fun () ->
                  List.exists is_error (Planner.verify_program catalog program))
            in
            if refused then fallback ()
            else
              match
                span tr "exec.program" (fun () ->
                    Planner.run_program ~mode ~engine catalog program)
              with
              | exception Planner.Planning_error _ -> fallback ()
              | result ->
                  let rel =
                    span tr "exec.present" (fun () ->
                        Exec.Presentation.apply_order q result)
                  in
                  span tr "storage.drop_temps" (fun () ->
                      Planner.drop_temps catalog program);
                  let temps = List.length program.Optimizer.Program.temps in
                  let via = Core.Via_transformed in
                  Ok { t_rel = rel; t_via = via; t_temps = temps }))

(* Each replayed statement runs twice, untraced through [Core.run] and
   traced through the rebuilt ladder, in an order alternating from one
   statement to the next so neither side always finds the pool warmed by
   the other.  [next] yields the statements to replay. *)
let paired_pass l firsts next =
  let spec = l.spec in
  let tr =
    {
      pager = Catalog.pager (Core.catalog l.db);
      spans = [];
      next_id = 0;
      parent = -1;
      stmt = 0;
    }
  in
  let rec go k acc =
    match next () with
    | None -> List.rev acc
    | Some id ->
        let db = next_db ~runs:2 l in
        tr.stmt <- k;
        tr.pager <- Catalog.pager (Core.catalog db);
        let traced () = (id, traced_run tr spec db (snd spec.pool.(id))) in
        let untraced () = run_sample spec db firsts id in
        let pair =
          if k mod 2 = 0 then
            let u = untraced () in
            (u, traced ())
          else
            let t = traced () in
            (untraced (), t)
        in
        go (k + 1) (pair :: acc)
  in
  let pairs = go 0 [] in
  (List.rev tr.spans, List.map snd pairs, List.map fst pairs)

let dur s = s.sp_end -. s.sp_start

(* A span's self time: its duration minus the time its child spans cover
   (siblings never overlap: the ladder is sequential). *)
let self_time spans =
  let covered = Hashtbl.create 1024 in
  let covered_of id = Option.value ~default:0. (Hashtbl.find_opt covered id) in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace covered s.sp_parent (covered_of s.sp_parent +. dur s))
    spans;
  fun s -> dur s -. covered_of s.sp_id

(* Auto against each forced strategy on every distinct statement, each run
   from SQL text; a strategy that refuses is skipped. *)
let forced_strategies =
  [
    ("nested", Core.Nested_iteration);
    ("transformed", Core.Transformed Planner.Auto);
    ("batched", Core.Batched Planner.Auto);
  ]

(* (via, page I/O, ms) of the second of two runs, so that every strategy
   finds the pool as its own previous run left it *)
let strategy_cost spec db sql strategy =
  let run () =
    guard (fun () ->
        Core.run ~strategy ~mode:spec.mode ~engine:spec.engine db sql)
  in
  ignore (run ());
  let t0 = now () in
  match run () with
  | Ok e -> Some (e.Core.via, Pager.total_io e.Core.io, (now () -. t0) *. 1e3)
  | Error _ -> None

let regrets spec db =
  Array.to_list
    (Array.map
       (fun (_, sql) ->
         let forced (name, strategy) =
           ( name,
             Option.map
               (fun (_, io, ms) -> (io, ms))
               (strategy_cost spec db sql strategy) )
         in
         let auto = strategy_cost spec db sql Core.Auto in
         (sql, auto, List.map forced forced_strategies))
       spec.pool)

let regret_json (sql, auto, forced) =
  let cost (io, ms) = P.Obj [ ("io", P.Int io); ("ms", P.Float ms) ] in
  let auto =
    match auto with
    | Some (via, io, ms) ->
        [ ("auto", P.Str (Core.via_name via)); ("auto_cost", cost (io, ms)) ]
    | None -> [ ("auto", P.Null) ]
  in
  P.Obj
    ((("sql", P.Str sql) :: auto)
    @ List.map
        (fun (name, c) ->
          (name, match c with Some c -> cost c | None -> P.Str "refused"))
        forced)

(* Regret against the best strategy that answered; a wrong pick is Auto's
   page I/O more than 10% above the best. *)
let regret_metrics regrets =
  let rows =
    List.filter_map
      (fun (_, auto, forced) ->
        match (auto, List.filter_map snd forced) with
        | Some (_, aio, ams), (_ :: _ as costs) ->
            let best_io =
              List.fold_left (fun m (io, _) -> min m io) max_int costs
            in
            let best_ms =
              List.fold_left (fun m (_, ms) -> Float.min m ms) infinity costs
            in
            Some
              ( float_of_int (aio - best_io),
                ams -. best_ms,
                float_of_int aio > 1.1 *. float_of_int best_io )
        | _ -> None)
      regrets
  in
  let io, ms, wrong =
    List.fold_left
      (fun (ios, mss, n) (io, ms, w) ->
        (io :: ios, ms :: mss, if w then n + 1 else n))
      ([], [], 0) rows
  in
  [
    ("optimizer.auto_regret_io", "io/stmt", mean io);
    ("optimizer.auto_regret_ms", "ms", mean ms);
    ("optimizer.auto_wrong_picks", "count", float_of_int wrong);
  ]

(* Request lines through an in-process [Server] over [db]: the server
   layer's cost per statement request, without the socket. *)
let server_replay db lines =
  let srv = Server.create db in
  let sessions = [| Server.open_session srv; Server.open_session srv |] in
  let proto = ref [] and handle = ref [] in
  List.iter
    (fun (conn, line, is_stmt) ->
      let t0 = now () in
      ignore (P.request_of_line line);
      let t1 = now () in
      ignore (Server.handle_line srv sessions.(conn) line);
      let t2 = now () in
      if is_stmt then begin
        proto := (t1 -. t0) :: !proto;
        handle := (t2 -. t1) :: !handle
      end)
    lines;
  (!proto, !handle, Server.Plan_cache.counters (Server.cache srv))

let index_build_io spec db =
  let catalog = Core.catalog db in
  List.fold_left
    (fun acc (t, c) ->
      let key_col = Schema.find (Catalog.schema catalog t) c in
      match Catalog.index_on catalog t ~key_col with
      | Some bt -> acc + Pager.total_io (Storage.Btree.build_io bt)
      | None -> acc)
    0 spec.indexes

let span_json ~origin ~self s =
  let us t = P.Float ((t -. origin) *. 1e6) in
  P.Obj
    [
      ("name", P.Str s.sp_name);
      ("stmt", P.Int s.sp_stmt);
      ("id", P.Int s.sp_id);
      ("parent", P.Int s.sp_parent);
      ("start_us", us s.sp_start);
      ("end_us", us s.sp_end);
      ("self_us", P.Float (self s *. 1e6));
      ("logical_reads", P.Int s.sp_io.Pager.logical_reads);
      ("physical_reads", P.Int s.sp_io.Pager.physical_reads);
      ("physical_writes", P.Int s.sp_io.Pager.physical_writes);
    ]

(* Self time per statement, grouped by [key] of the span name. *)
let self_table spans ~self ~n key =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let k = key s.sp_name in
      let c, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (c + 1, t +. self s))
    spans;
  Hashtbl.fold
    (fun k (c, t) acc ->
      let per_stmt = P.Float (1e6 *. t /. n) in
      (k, P.Obj [ ("spans", P.Int c); ("self_us_per_stmt", per_stmt) ]) :: acc)
    tbl []
  |> List.sort compare

let layer_of name = String.sub name 0 (String.index name '.')

(* The traced run's common part.  [next] yields the statements to replay;
   [server_lines] gives the requests the in-process server replays for
   them; [socket_lat], for [serve], is the socket latencies of the same
   statements. *)
let trace_layers opts l ~firsts ~next ~server_db ~server_lines ~socket_lat =
  let spec = l.spec in
  Gc.full_major ();
  let spans, results, untraced = paired_pass l firsts next in
  let db = l.db in
  let good = check_firsts spec db firsts in
  let regrets = regrets spec db in
  (* the server replay covers at most one reload period, as its database
     is never reloaded *)
  let limit = reload_rounds * Array.length spec.pool in
  let replayed = List.filteri (fun i _ -> i < limit) (List.map fst results) in
  let proto, handle, cache = server_replay server_db (server_lines replayed) in
  let wrong (id, r) =
    match (r, firsts.(id)) with
    | Ok t, Some f ->
        not
          (good.(id) && t.t_via = f.f_via
          && Digest.equal (digest t.t_rel) f.f_digest)
    | _ -> true
  in
  let failed = List.length (List.filter wrong results) in
  let n = float_of_int (List.length results) in
  let self = self_time spans in
  let time names =
    sum
      (List.filter_map
         (fun s -> if List.mem s.sp_name names then Some (dur s) else None)
         spans)
  in
  let roots = List.filter (fun s -> s.sp_parent < 0) spans in
  let io f = float_of_int (List.fold_left (fun a s -> a + f s.sp_io) 0 roots) in
  let logical = io (fun st -> st.Pager.logical_reads) in
  let physical = io (fun st -> st.Pager.physical_reads) in
  let writes = io (fun st -> st.Pager.physical_writes) in
  let ok = List.filter_map (function _, Ok t -> Some t | _ -> None) results in
  let per_stmt f =
    ratio (float_of_int (List.fold_left (fun a t -> a + f t) 0 ok)) n
  in
  let pick via = per_stmt (fun t -> if t.t_via = via then 1 else 0) in
  let root_time = sum (List.map dur roots) in
  let hits = float_of_int cache.Server.Plan_cache.hits in
  let lookups = hits +. float_of_int cache.Server.Plan_cache.misses in
  let execute = [ "exec.program"; "exec.nested"; "exec.batched" ] in
  let metrics =
    [
      ("sql.parse_us", "us", 1e6 *. time [ "sql.parse" ] /. n);
      ("optimizer.choose_us", "us", 1e6 *. time [ "optimizer.choose" ] /. n);
      ( "optimizer.transform_us",
        "us",
        1e6 *. time [ "optimizer.transform" ] /. n );
      ("analysis.verify_us", "us", 1e6 *. time [ "analysis.verify" ] /. n);
      ("exec.execute_ms", "ms", 1e3 *. time execute /. n);
      ( "exec.rows_out",
        "rows/stmt",
        per_stmt (fun t -> Relation.cardinality t.t_rel) );
      ("optimizer.temps_per_stmt", "temps/stmt", per_stmt (fun t -> t.t_temps));
      ("storage.logical_reads", "reads/stmt", logical /. n);
      ("storage.physical_reads", "reads/stmt", physical /. n);
      ("storage.physical_writes", "writes/stmt", writes /. n);
      ("storage.hit_ratio", "fraction", 1. -. ratio physical logical);
      ("storage.index_build_io", "io", float_of_int (index_build_io spec db));
      ("optimizer.pick_nested", "fraction", pick Core.Via_nested);
      ("optimizer.pick_transformed", "fraction", pick Core.Via_transformed);
      ("optimizer.pick_batched", "fraction", pick Core.Via_batched);
    ]
    @ regret_metrics regrets
    @ [
        ("server.protocol_us", "us", 1e6 *. mean proto);
        ("server.handle_us", "us", 1e6 *. mean handle);
        ("server.cache_hit_ratio", "fraction", ratio hits lookups);
        ( "server.cache_invalidations",
          "count",
          float_of_int cache.Server.Plan_cache.invalidations );
        ( "trace.overhead_frac",
          "fraction",
          (root_time /. sum (List.map (fun s -> s.lat) untraced)) -. 1. );
        ( "trace.self_coverage",
          "fraction",
          1. -. ratio (sum (List.map self roots)) root_time );
      ]
  in
  let origin = match spans with s :: _ -> s.sp_start | [] -> 0. in
  let wire =
    match socket_lat with
    | Some lat ->
        [ ("server.wire_us", P.Float (1e6 *. (mean lat -. mean handle))) ]
    | None -> []
  in
  write_json
    (Filename.concat out_dir (spec.name ^ ".trace.json"))
    (P.Obj
       ([
          ("workload", P.Str spec.name);
          ("seed", P.Int opts.seed);
          ("statements", P.Int (List.length results));
          ("layers", P.Obj (self_table spans ~self ~n layer_of));
          ("span_names", P.Obj (self_table spans ~self ~n Fun.id));
          ("templates", P.Obj (template_shares spec.pool untraced));
          ("regret", P.List (List.map regret_json regrets));
        ]
       @ wire
       @ [ ("spans", P.List (List.map (span_json ~origin ~self) spans)) ]));
  ( { correct = failed = 0; attempted = List.length results; failed; metrics },
    [ ("trace_file", P.Str (spec.name ^ ".trace.json")) ] )

(* The share of [--seconds] the traced run spends replaying (in process)
   or serving the statements it replays ([serve]). *)
let replay_share = 0.4

let in_process_trace opts spec =
  let l = live spec (spec.tables ~scale:opts.scale (data_rng opts.seed)) in
  let firsts = first_results spec l.db in
  let stmt = stream (stream_rng opts.seed) (Array.length spec.pool) in
  (* the clock starts at the first statement, so at least one is replayed *)
  let deadline = ref infinity in
  let next () =
    if !deadline = infinity then
      deadline := now () +. (replay_share *. opts.seconds);
    if now () < !deadline then Some (stmt ()) else None
  in
  let knobs =
    [
      ("mode", P.Str (Planner.mode_name spec.mode));
      ("engine", P.Str (Exec.Plan.engine_name spec.engine));
    ]
  in
  let server_lines =
    List.map (fun id -> (0, query_line ~knobs (snd spec.pool.(id)), true))
  in
  trace_layers opts l ~firsts ~next
    ~server_db:(build_db spec l.data)
    ~server_lines ~socket_lat:None

(* For [serve] the replayed sequence is a short socket run's; the ladder
   runs on an in-process replica holding the first data version. *)
let serve_trace opts spec =
  let tables, supplies = serve_data opts spec in
  let _, log, setup_lines =
    socket_run opts spec tables supplies
      ~seconds:(replay_share *. opts.seconds)
      ~reps:1
  in
  let l = live spec tables in
  let firsts = first_results spec l.db in
  let ids = ref (List.map (fun sv -> sv.sv_id) log.served) in
  let next () =
    match !ids with
    | [] -> None
    | id :: rest ->
        ids := rest;
        Some id
  in
  (* the request log up to the last replayed statement, loads included *)
  let rec upto n = function
    | [] -> []
    | ((_, _, stmt) as r) :: rest ->
        if stmt && n = 0 then [] else r :: upto (if stmt then n - 1 else n) rest
  in
  trace_layers opts l ~firsts ~next
    ~server_db:(Core.create_db ~buffer_pages:spec.buffer_pages ~page_bytes ())
    ~server_lines:(fun ids -> setup_lines @ upto (List.length ids) log.replay)
    ~socket_lat:(Some (List.map (fun sv -> sv.sv_lat) log.served))

let () =
  let opts = parse_args Sys.argv in
  let spec =
    match List.find_opt (fun s -> s.name = opts.workload) specs with
    | Some s -> s
    | None -> usage ()
  in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let o, extra =
    match (spec.name, opts.trace) with
    | "serve", false -> serve_run opts spec
    | "serve", true -> serve_trace opts spec
    | _, false -> in_process_run opts spec
    | _, true -> in_process_trace opts spec
  in
  Printf.printf "%s (seed %d): %d attempted, %d failed, correct=%b\n"
    spec.name opts.seed o.attempted o.failed o.correct;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-28s %14.4f %s\n" name v unit)
    o.metrics;
  write_json
    (Filename.concat out_dir
       (spec.name ^ if opts.trace then ".layers.json" else ".json"))
    (P.Obj
       ([
          ("workload", P.Str spec.name);
          ("seed", P.Int opts.seed);
          ("seconds", P.Float opts.seconds);
        ]
       @ extra
       @ [ ("result", outcome_json o) ]));
  print_endline (P.to_string (outcome_json o))

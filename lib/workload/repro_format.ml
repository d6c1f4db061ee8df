(* Self-contained repro files: everything a discrepancy needs to be
   replayed — the tables (inline, in the CSV dialect of [Csv_writer] and
   [Csv_loader]) and the query — in one .sql file whose data lines hide
   behind "--" so the file still reads as SQL:

     -- oracle repro: <one-line description>
     -- table PARTS (PNUM:int,QOH:int)
     -- row 1,2
     -- row ,0
     SELECT PNUM FROM PARTS WHERE ...

   An empty cell is NULL, exactly as in the CSV loader, and every "-- row"
   line is a row: a blank one is a one-column row holding NULL.  The
   oracle's shrinker and the equivalence search write these; `nestsql
   fuzz --replay`, `nestsql check` and the regression suite read them
   back. *)

module Relation = Relalg.Relation

type case = {
  tables : (string * Relation.t) list;  (* registration order *)
  sql : string;
}

exception Bad_repro of string

let errf fmt = Fmt.kstr (fun s -> raise (Bad_repro s)) fmt

(* ---------------- printing -------------------------------------------- *)

(* Raises [Csv_writer.Unwritable] on a value the dialect cannot hold (a
   string with a comma or newline): such a file would not replay.  Every
   other relation reads back equal ([of_string]). *)
let to_string ?(description = "differential oracle discrepancy") case =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("-- oracle repro: " ^ description ^ "\n");
  List.iter
    (fun (name, rel) ->
      match Csv_writer.to_lines rel with
      | [] -> assert false
      | header :: rows ->
          Buffer.add_string buf
            (Printf.sprintf "-- table %s (%s)\n" name header);
          List.iter
            (fun row -> Buffer.add_string buf ("-- row " ^ row ^ "\n"))
            rows)
    case.tables;
  Buffer.add_string buf (String.trim case.sql);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---------------- parsing --------------------------------------------- *)

let strip_prefix p s =
  let lp = String.length p in
  if String.length s >= lp && String.sub s 0 lp = p then
    Some (String.sub s lp (String.length s - lp))
  else None

let of_string text : case =
  (* [tables] accumulates (name, header, rev rows); non-comment lines are
     the SQL. *)
  let tables = ref [] and sql = Buffer.create 128 in
  (* "-- row" lines count as data only while directly under a "-- table"
     line (possibly after other rows); any other line ends the table
     block, so free-text comments that happen to start with "-- row" (or
     follow the data) stay comments. *)
  let in_table = ref false in
  List.iter
    (fun line ->
      let trimmed = String.trim line in
      match strip_prefix "-- table " trimmed with
      | Some spec -> (
          match String.index_opt spec '(' with
          | Some i when String.length spec > 0 && spec.[String.length spec - 1] = ')' ->
              let name = String.trim (String.sub spec 0 i) in
              let header = String.sub spec (i + 1) (String.length spec - i - 2) in
              if name = "" then errf "empty table name in %S" trimmed;
              tables := (name, header, ref []) :: !tables;
              in_table := true
          | _ -> errf "bad table line %S (want -- table NAME (COL:TY,...))" trimmed)
      | None -> (
          match strip_prefix "-- row" trimmed with
          | Some cells when !in_table ->
              let _, _, rows = List.hd !tables in
              (* keep the raw cell text; the CSV loader arbitrates arity
                 (an empty cell is NULL) *)
              rows := String.trim cells :: !rows
          | _ ->
              if strip_prefix "--" trimmed = None && trimmed <> "" then begin
                in_table := false;
                Buffer.add_string sql line;
                Buffer.add_char sql '\n'
              end
              else if trimmed <> "" then in_table := false))
    (String.split_on_char '\n' text);
  let tables =
    List.rev_map
      (fun (name, header, rows) ->
        match Csv_loader.of_rows ~rel:name header (List.rev !rows) with
        | rel -> (name, rel)
        | exception Csv_loader.Bad_csv msg -> errf "table %s: %s" name msg)
      !tables
  in
  let sql = String.trim (Buffer.contents sql) in
  if sql = "" then errf "no SQL statement in repro";
  { tables; sql }

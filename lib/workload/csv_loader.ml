(* Minimal CSV loading for the CLI: header line "NAME:TYPE,NAME:TYPE,...",
   types in {int, float, string, date}; values comma-separated (values
   containing commas are out of scope for the demos this serves), each
   trimmed of surrounding blanks.  Empty cells load as NULL.  A string cell
   wrapped in double quotes is read exactly, inner quotes doubled: the
   empty string, or a string with leading or trailing blanks. *)

module Value = Relalg.Value
module Relation = Relalg.Relation

exception Bad_csv of string

let errf fmt = Fmt.kstr (fun s -> raise (Bad_csv s)) fmt

let parse_type = function
  | "int" -> Value.Tint
  | "float" -> Value.Tfloat
  | "string" | "str" -> Value.Tstr
  | "date" -> Value.Tdate
  | t -> errf "unknown column type %S (use int|float|string|date)" t

let parse_header line =
  List.map
    (fun field ->
      match String.split_on_char ':' (String.trim field) with
      | [ name; ty ] when name <> "" -> (name, parse_type (String.trim ty))
      | _ -> errf "bad header field %S (want NAME:TYPE)" field)
    (String.split_on_char ',' line)

(* The text between a quoted cell's quotes, each doubled quote read as
   one. *)
let unquote text =
  let b = Buffer.create (String.length text) and last = String.length text - 1 in
  let rec go i =
    if i < last then
      if text.[i] <> '"' then begin
        Buffer.add_char b text.[i];
        go (i + 1)
      end
      else if i + 1 < last && text.[i + 1] = '"' then begin
        Buffer.add_char b '"';
        go (i + 2)
      end
      else errf "bad quoted cell %s" text
  in
  go 1;
  Buffer.contents b

let parse_cell ty (text : string) : Value.t =
  let text = String.trim text in
  let n = String.length text in
  if text = "" then Value.Null
  else if n >= 2 && text.[0] = '"' && text.[n - 1] = '"' then
    match ty with
    | Value.Tstr -> Value.Str (unquote text)
    | Value.Tint | Value.Tfloat | Value.Tdate -> errf "quoted cell %s" text
  else
    match ty with
    | Value.Tint -> (
        match int_of_string_opt text with
        | Some i -> Value.Int i
        | None -> errf "bad int %S" text)
    | Value.Tfloat -> (
        match float_of_string_opt text with
        | Some f -> Value.Float f
        | None -> errf "bad float %S" text)
    | Value.Tstr -> Value.Str text
    | Value.Tdate -> (
        match Value.date_of_string text with
        | Some d -> Value.Date d
        | None -> errf "bad date %S" text)

(* Every row line is a row: a blank one is a one-column row holding NULL. *)
let of_rows ~rel header rows =
  let columns = parse_header header in
  let parse_row lineno line =
    let cells = String.split_on_char ',' line in
    if List.length cells <> List.length columns then
      errf "line %d: %d cells for %d columns" lineno (List.length cells)
        (List.length columns);
    List.map2 (fun (_, ty) cell -> parse_cell ty cell) columns cells
  in
  Relation.of_values ~rel columns
    (List.mapi (fun i line -> parse_row (i + 2) line) rows)

(* A file's lines: blank lines are skipped. *)
let of_lines ~rel lines =
  match lines with
  | [] -> errf "empty input"
  | header :: rows ->
      of_rows ~rel header (List.filter (fun line -> String.trim line <> "") rows)

let load_file ~rel path =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  of_lines ~rel lines

(* CSV output, mirroring [Csv_loader]'s dialect: a typed header line
   "NAME:TYPE,..." followed by one line per row; NULLs as empty cells.
   Values are written so that they read back exactly: ISO dates, integers,
   floats with as many digits as they need (at most 17), and strings raw
   unless the loader would read them otherwise — empty, with leading or
   trailing blanks, or opening with a double quote — which are quoted,
   inner quotes doubled.  A string with a comma or a newline is refused,
   since cells are split on commas and rows on newlines. *)

module Value = Relalg.Value
module Schema = Relalg.Schema
module Relation = Relalg.Relation

exception Unwritable of string

let type_name = function
  | Value.Tint -> "int"
  | Value.Tfloat -> "float"
  | Value.Tstr -> "string"
  | Value.Tdate -> "date"

let cell (v : Value.t) : string =
  match v with
  | Value.Null -> ""
  | Value.Int i -> string_of_int i
  | Value.Float f -> (
      let exact digits =
        let s = Printf.sprintf "%.*g" digits f in
        if Float.equal (float_of_string s) f then Some s else None
      in
      match List.find_map exact [ 15; 16 ] with
      | Some s -> s
      | None -> Printf.sprintf "%.17g" f)
  | Value.Date d -> Fmt.str "%a" Value.pp_date d
  | Value.Str s ->
      if String.contains s ',' || String.contains s '\n' then
        raise
          (Unwritable
             (Printf.sprintf "string value %S contains a comma/newline" s))
      else if s = "" || String.trim s <> s || s.[0] = '"' then
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
      else s

let to_lines (rel : Relation.t) : string list =
  let header =
    String.concat ","
      (List.map
         (fun (c : Schema.column) -> c.name ^ ":" ^ type_name c.ty)
         (Schema.columns (Relation.schema rel)))
  in
  header
  :: List.map
       (fun row -> String.concat "," (List.map cell (Relalg.Row.to_list row)))
       (Relation.rows rel)

(* A file's blank line is skipped on load, so a one-column table's NULL
   row cannot be saved. *)
let save_file path rel =
  let lines = to_lines rel in
  if List.mem "" lines then
    raise
      (Unwritable
         "a NULL in a one-column table is a blank line, which the loader \
          skips");
  let oc = open_out path in
  Fun.protect
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        lines)
    ~finally:(fun () -> close_out oc)

(* ---------------- whole-catalog persistence ---------------------------- *)

(* One NAME.csv per base table. *)
let save_dir (catalog : Storage.Catalog.t) dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun name ->
      save_file
        (Filename.concat dir (name ^ ".csv"))
        (Storage.Catalog.relation catalog name))
    (Storage.Catalog.table_names catalog)

let load_dir (catalog : Storage.Catalog.t) dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.iter (fun file ->
         if Filename.check_suffix file ".csv" then
           let name = Filename.chop_suffix file ".csv" in
           Storage.Catalog.register_relation catalog name
             (Csv_loader.load_file ~rel:name (Filename.concat dir file)))

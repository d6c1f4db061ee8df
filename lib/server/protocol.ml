(* The line-oriented JSON protocol of [nestsql serve] (docs/SERVER.md).

   One JSON object per line in each direction, printed and parsed by the
   shared [Json] library. *)

module Value = Relalg.Value

(* ------------------------------------------------------------------ *)
(* JSON values (the shared [Json] library, re-exported)                *)
(* ------------------------------------------------------------------ *)

type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let parse = Json.parse
let to_string = Json.to_string
let member = Json.member

(* ------------------------------------------------------------------ *)
(* Value coercions                                                     *)
(* ------------------------------------------------------------------ *)

let json_of_value : Value.t -> json = function
  | Value.Null -> Null
  | Value.Int i -> Int i
  | Value.Float f -> Float f
  | Value.Str s -> Str s
  | Value.Date d -> Str (Fmt.str "%a" Value.pp_date d)

let ty_of_string s =
  match String.lowercase_ascii s with
  | "int" -> Some Value.Tint
  | "float" -> Some Value.Tfloat
  | "str" | "string" | "text" -> Some Value.Tstr
  | "date" -> Some Value.Tdate
  | _ -> None

let value_of_json (ty : Value.ty) (j : json) : (Value.t, string) result =
  match (ty, j) with
  | _, Null -> Ok Value.Null
  | Value.Tint, Int i -> Ok (Value.Int i)
  | Value.Tfloat, Int i -> Ok (Value.Float (float_of_int i))
  | Value.Tfloat, Float f -> Ok (Value.Float f)
  | (Value.Tstr | Value.Tdate), Str s -> (
      match Value.coerce_string_literal s ty with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "cannot read %S as %s" s (Value.type_name ty)))
  | _ ->
      Error
        (Printf.sprintf "cannot read %s cell as %s" (to_string j)
           (Value.type_name ty))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type knobs = {
  strategy : Core.strategy option;
  mode : Optimizer.Planner.mode option;
  engine : Exec.Plan.engine option;
}

type request =
  | Query of { sql : string; knobs : knobs }
  | Prepare of { name : string; sql : string; knobs : knobs }
  | Execute of { name : string }
  | Explain of { sql : string; analyze : bool; knobs : knobs }
  | Lint of { sql : string; check : bool }
  | Load of {
      table : string;
      columns : (string * Value.ty) list;
      rows : Value.t list list;
    }
  | Stats
  | Close

let verb_name = function
  | Query _ -> "query"
  | Prepare _ -> "prepare"
  | Execute _ -> "execute"
  | Explain _ -> "explain"
  | Lint _ -> "lint"
  | Load _ -> "load"
  | Stats -> "stats"
  | Close -> "close"

(* Field accessors returning protocol-grade error messages. *)

let str_field j name =
  match member name j with
  | Some (Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let bool_field_opt j name =
  match member name j with
  | Some (Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)
  | None -> Ok None

let ( let* ) = Result.bind

let strategy_of_string = Core.strategy_of_string

(* The optional planner knobs shared by query/prepare/explain.  Unknown
   names are errors, mirroring the CLI's strict --mode/--engine parsing:
   a typo must never silently select a default. *)
let knobs_of_json j =
  let parse_with name of_string what =
    match member name j with
    | None -> Ok None
    | Some (Str s) -> (
        match of_string s with
        | Some v -> Ok (Some v)
        | None -> Error (Printf.sprintf "unknown %s %S (want %s)" name s what))
    | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  in
  let* strategy =
    parse_with "strategy" strategy_of_string
      "auto, nested, transformed or batched"
  in
  let* mode =
    parse_with "mode" Optimizer.Planner.mode_of_string "paper1987 or hybrid"
  in
  let* engine =
    parse_with "engine" Exec.Plan.engine_of_string "tuple or vectorized"
  in
  Ok { strategy; mode; engine }

let columns_of_json = function
  | List cols ->
      let parse_col = function
        | List [ Str name; Str ty ] -> (
            match ty_of_string ty with
            | Some ty -> Ok (name, ty)
            | None ->
                Error
                  (Printf.sprintf
                     "unknown column type %S (want int, float, str or date)" ty))
        | _ -> Error "each column must be [\"NAME\", \"TYPE\"]"
      in
      List.fold_right
        (fun col acc ->
          let* acc = acc in
          let* c = parse_col col in
          Ok (c :: acc))
        cols (Ok [])
  | _ -> Error "field \"columns\" must be a list"

let rows_of_json columns = function
  | List rows ->
      let ncols = List.length columns in
      let parse_row i = function
        | List cells when List.length cells = ncols ->
            List.fold_right
              (fun ((_, ty), cell) acc ->
                let* acc = acc in
                let* v = value_of_json ty cell in
                Ok (v :: acc))
              (List.combine columns cells)
              (Ok [])
        | List cells ->
            Error
              (Printf.sprintf "row %d has %d cells (want %d)" i
                 (List.length cells) ncols)
        | _ -> Error (Printf.sprintf "row %d must be a list" i)
      in
      let rec go i = function
        | [] -> Ok []
        | r :: rest ->
            let* row = parse_row i r in
            let* rest = go (i + 1) rest in
            Ok (row :: rest)
      in
      go 0 rows
  | _ -> Error "field \"rows\" must be a list"

let request_of_line line : (request, string) result =
  let* j = parse line in
  let* op = str_field j "op" in
  match String.lowercase_ascii op with
  | "query" ->
      let* sql = str_field j "sql" in
      let* knobs = knobs_of_json j in
      Ok (Query { sql; knobs })
  | "prepare" ->
      let* name = str_field j "name" in
      let* sql = str_field j "sql" in
      let* knobs = knobs_of_json j in
      Ok (Prepare { name; sql; knobs })
  | "execute" ->
      let* name = str_field j "name" in
      Ok (Execute { name })
  | "explain" ->
      let* sql = str_field j "sql" in
      let* analyze = bool_field_opt j "analyze" in
      let* knobs = knobs_of_json j in
      Ok (Explain { sql; analyze = Option.value analyze ~default:false; knobs })
  | "lint" ->
      let* sql = str_field j "sql" in
      let* check = bool_field_opt j "check" in
      Ok (Lint { sql; check = Option.value check ~default:false })
  | "load" ->
      let* table = str_field j "table" in
      let* columns =
        match member "columns" j with
        | Some c -> columns_of_json c
        | None -> Error "missing field \"columns\""
      in
      let* rows =
        match member "rows" j with
        | Some r -> rows_of_json columns r
        | None -> Error "missing field \"rows\""
      in
      Ok (Load { table; columns; rows })
  | "stats" -> Ok Stats
  | "close" -> Ok Close
  | other ->
      Error
        (Printf.sprintf
           "unknown op %S (want query, prepare, execute, explain, lint, \
            load, stats or close)"
           other)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let ok_response fields = to_string (Obj (("ok", Bool true) :: fields))
let error_response msg = to_string (Obj [ ("ok", Bool false); ("error", Str msg) ])

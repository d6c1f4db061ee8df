(* Column vectors with unboxed int, float and date representations.  See
   column.mli. *)

type t =
  | Ints of { data : int array; nulls : bool array }
  | Floats of { data : float array; nulls : bool array }
  | Dates of { data : int array; nulls : bool array }
  | Values of Value.t array

let max_rows = 240

let date_of_key k : Value.date =
  { year = k / 10000; month = k / 100 mod 100; day = k mod 100 }

(* The NULL flags of a full vector without NULLs, shared: a heap's column
   image keeps its vectors, and a [bool array] costs a word per row. *)
let no_nulls = Array.make max_rows false

(* Transpose column [j], preferring the unboxed representation the schema
   type promises; [Exit] from the fill demotes the column to boxed.  The
   shared [no_nulls] replaces a full vector's flags when none is set. *)
let column_of_rows (rows : Row.t array) j (ty : Value.ty) : t =
  let n = Array.length rows in
  let boxed () = Values (Array.init n (fun i -> rows.(i).(j))) in
  let nulls = Array.make n false and any_null = ref false in
  let null i =
    nulls.(i) <- true;
    any_null := true
  in
  let flags () = if n = max_rows && not !any_null then no_nulls else nulls in
  match ty with
  | Value.Tint -> (
      let data = Array.make n 0 in
      try
        for i = 0 to n - 1 do
          match rows.(i).(j) with
          | Value.Int x -> data.(i) <- x
          | Value.Null -> null i
          | _ -> raise_notrace Exit
        done;
        Ints { data; nulls = flags () }
      with Exit -> boxed ())
  | Value.Tdate -> (
      let data = Array.make n 0 in
      try
        for i = 0 to n - 1 do
          match rows.(i).(j) with
          | Value.Date d
            when d.month >= 0 && d.month < 100 && d.day >= 0 && d.day < 100
                 && d.year >= 0 && d.year < 1_000_000 ->
              (* the fields fit the key's digits: the key decodes back *)
              data.(i) <- Value.date_key d
          | Value.Null -> null i
          | _ -> raise_notrace Exit
        done;
        Dates { data; nulls = flags () }
      with Exit -> boxed ())
  | Value.Tfloat -> (
      let data = Array.make n 0. in
      try
        for i = 0 to n - 1 do
          match rows.(i).(j) with
          | Value.Float x -> data.(i) <- x
          | Value.Null -> null i
          | _ -> raise_notrace Exit
        done;
        Floats { data; nulls = flags () }
      with Exit -> boxed ())
  | Value.Tstr -> boxed ()

let of_rows schema rows =
  Array.of_list
    (List.mapi
       (fun j (c : Schema.column) -> column_of_rows rows j c.ty)
       (Schema.columns schema))

let value c i =
  match c with
  | Ints { data; nulls } -> if nulls.(i) then Value.Null else Value.Int data.(i)
  | Floats { data; nulls } -> if nulls.(i) then Value.Null else Value.Float data.(i)
  | Dates { data; nulls } ->
      if nulls.(i) then Value.Null else Value.Date (date_of_key data.(i))
  | Values vs -> vs.(i)

let is_null c i =
  match c with
  | Ints { nulls; _ } | Floats { nulls; _ } | Dates { nulls; _ } -> nulls.(i)
  | Values vs -> Value.is_null vs.(i)

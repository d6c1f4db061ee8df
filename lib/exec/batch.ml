(* Column-major row chunks with selection vectors.  See batch.mli. *)

open Relalg

type col = Column.t =
  | Ints of { data : int array; nulls : bool array }
  | Floats of { data : float array; nulls : bool array }
  | Dates of { data : int array; nulls : bool array }
  | Values of Value.t array

type t = {
  schema : Schema.t;
  len : int;
  cols : col array;
  sel : int array option;
  rows : Row.t array option;
  pages : Storage.Heap_file.pending;
}

let max_rows = Column.max_rows

let live b = match b.sel with None -> b.len | Some s -> Array.length s

let value b ~col ~row = Column.value b.cols.(col) row

let row b i =
  match b.rows with
  | Some rows -> rows.(i)
  | None -> Array.init (Array.length b.cols) (fun c -> value b ~col:c ~row:i)

let live_indices b =
  match b.sel with
  | Some s -> Array.copy s
  | None ->
      let s = Array.make b.len 0 in
      for i = 1 to b.len - 1 do
        s.(i) <- i
      done;
      s

let iter_live b f =
  match b.sel with
  | None ->
      for i = 0 to b.len - 1 do
        f i
      done
  | Some s -> Array.iter f s

let of_cols schema len cols =
  {
    schema;
    len;
    cols;
    sel = None;
    rows = None;
    pages = Storage.Heap_file.no_pages;
  }

let of_rows schema (rows : Row.t array) =
  {
    schema;
    len = Array.length rows;
    cols = Column.of_rows schema rows;
    sel = None;
    rows = Some rows;
    pages = Storage.Heap_file.no_pages;
  }

(* Column-wise gather: allocate every row, then fill per column so the
   representation dispatch happens once per column, not once per cell. *)
let gather_rows b =
  let idxs = match b.sel with Some s -> s | None -> [||] in
  let n = match b.sel with Some s -> Array.length s | None -> b.len in
  let dense = b.sel = None in
  let arity = Array.length b.cols in
  let rows = Array.init n (fun _ -> Array.make arity Value.Null) in
  Array.iteri
    (fun c col ->
      match col with
      | Ints { data; nulls } ->
          for k = 0 to n - 1 do
            let i = if dense then k else idxs.(k) in
            if not nulls.(i) then rows.(k).(c) <- Value.Int data.(i)
          done
      | Floats { data; nulls } ->
          for k = 0 to n - 1 do
            let i = if dense then k else idxs.(k) in
            if not nulls.(i) then rows.(k).(c) <- Value.Float data.(i)
          done
      | Dates { data; nulls } ->
          for k = 0 to n - 1 do
            let i = if dense then k else idxs.(k) in
            if not nulls.(i) then
              rows.(k).(c) <- Value.Date (Column.date_of_key data.(i))
          done
      | Values vs ->
          for k = 0 to n - 1 do
            let i = if dense then k else idxs.(k) in
            rows.(k).(c) <- vs.(i)
          done)
    b.cols;
  Array.to_list rows

let to_rows b =
  match (b.rows, b.sel) with
  | Some rows, None -> Array.to_list rows
  | Some rows, Some s -> Array.fold_right (fun i acc -> rows.(i) :: acc) s []
  | None, _ -> gather_rows b

let project b ~schema ~positions =
  { b with schema; cols = Array.map (fun p -> b.cols.(p)) positions; rows = None }

let with_sel b sel = { b with sel = Some sel }
let with_schema b schema = { b with schema }

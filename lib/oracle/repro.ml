(* The repro format ([Workload.Repro_format]) plus what replaying one
   needs: reading the file and loading its tables into a fresh database. *)

include Workload.Repro_format
module Schema = Relalg.Schema

let load path =
  let text = In_channel.with_open_text path In_channel.input_all in
  of_string text

(* A fresh database loaded with the case's tables (tiny pool: the paged
   paths and external sorts spill even on shrunk inputs). *)
let build_db ?(buffer_pages = 8) ?(page_bytes = 128) case =
  let db = Core.create_db ~buffer_pages ~page_bytes () in
  List.iter
    (fun (name, rel) ->
      Core.define_table db name
        (List.map
           (fun (c : Schema.column) -> (c.name, c.ty))
           (Schema.columns (Relation.schema rel)))
        (List.map Relalg.Row.to_list (Relation.rows rel)))
    case.tables;
  db

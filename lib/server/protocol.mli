(** The wire protocol of [nestsql serve]: one JSON object per line in each
    direction.

    Requests carry an ["op"] field naming the verb ([query], [prepare],
    [execute], [explain], [lint], [load], [stats], [close]); responses
    always carry ["ok"] plus verb-specific fields, or
    [{"ok": false, "error": "..."}].  The grammar, field tables and a
    worked transcript live in [docs/SERVER.md].

    JSON values are the shared {!Json.t}, re-exported here (constructors,
    [parse], [to_string], [member]) so protocol clients need only this
    module; the module itself owns the request ASTs and the
    [Value.t] <-> JSON coercions the [load] verb and result rendering
    need. *)

(** {1 JSON} *)

type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(** {!Json.parse}. *)
val parse : string -> (json, string) result

(** {!Json.to_string}. *)
val to_string : json -> string

(** {!Json.member}. *)
val member : string -> json -> json option

(** {1 Value coercions} *)

(** NULL → [Null], dates render as ISO strings. *)
val json_of_value : Relalg.Value.t -> json

(** Reinterpret a JSON cell at a declared column type (the [load] verb's
    row decoding): numbers at numeric types, strings at [Tstr]/[Tdate]
    (dates parsed as in CSV loading), [Null] anywhere. *)
val value_of_json : Relalg.Value.ty -> json -> (Relalg.Value.t, string) result

(** {1 Requests} *)

type knobs = {
  strategy : Core.strategy option;
  mode : Optimizer.Planner.mode option;
  engine : Exec.Plan.engine option;
      (** validated, then ignored: there is one executor *)
}
(** Per-request planner knobs; [None] means the server default.  None of
    them is part of the plan-cache key: they are applied when a cached
    statement executes. *)

type request =
  | Query of { sql : string; knobs : knobs }
  | Prepare of { name : string; sql : string; knobs : knobs }
  | Execute of { name : string }
  | Explain of { sql : string; analyze : bool; knobs : knobs }
  | Lint of { sql : string; check : bool }
      (** [check] additionally runs the semantic checker (plan validation
          + bounded equivalence search) over each query *)
  | Load of {
      table : string;
      columns : (string * Relalg.Value.ty) list;
      rows : Relalg.Value.t list list;
    }
  | Stats
  | Close

val verb_name : request -> string

(** Parse one request line.  Errors name the offending field — they go
    straight back to the client as [{"ok": false, "error": ...}]. *)
val request_of_line : string -> (request, string) result

(** {1 Responses} *)

(** [{"ok": true, <fields>}] as one line. *)
val ok_response : (string * json) list -> string

(** [{"ok": false, "error": msg}] as one line. *)
val error_response : string -> string

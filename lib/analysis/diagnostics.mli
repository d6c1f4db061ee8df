(* Structured static-analysis diagnostics: stable codes, severities, source
   spans, pretty text and JSON rendering.  Produced by {!Lint} and
   {!Rewrite_verifier}; the code catalogue is documented in docs/LINT.md. *)

type severity = Error | Warning | Info

type t = {
  code : string;  (** stable, e.g. ["NQ001"] *)
  title : string;  (** stable slug, e.g. ["count-bug-susceptible"] *)
  severity : severity;
  span : Sql.Ast.span;
      (** source range of the offending block; [Ast.no_span] for generated
          (transformed) queries *)
  message : string;
  hint : string option;  (** paper citation / suggested fix *)
}

val make :
  ?hint:string ->
  string ->
  Sql.Ast.span ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [make code span fmt ...] builds a diagnostic; slug and severity come from
    the catalogue.  @raise Invalid_argument on an unknown code. *)

val severity_name : severity -> string

val has_errors : t list -> bool

val sort : t list -> t list
(** Stable presentation order: source position, then severity, then code. *)

val pp : t Fmt.t

val to_string : t -> string

val list_to_string : t list -> string

val to_json : t -> Json.t

val list_to_json : t list -> Json.t
(** The diagnostics, sorted, as a JSON array. *)

val json_version : int
(** Schema version of {!json_report} (and the [version] field of the
    server's lint responses).  Bumped on any incompatible change; history
    in docs/LINT.md. *)

val report_fields : t list -> (string * Json.t) list
(** The envelope fields [version], [errors] and [diagnostics], for
    responses that embed them next to fields of their own. *)

val json_report : t list -> Json.t
(** The versioned envelope `nestsql lint --json` prints:
    [{"version":N,"errors":B,"diagnostics":[...]}]. *)

(** The repository's one JSON implementation: a value type, a compact
    single-line printer and a strict parser.  Every JSON surface — trace
    lines, EXPLAIN trees, lint/check reports, server responses and the
    bench documents — builds {!t} values and prints them with
    {!to_string}.  No dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact single-line rendering.  Control characters in strings are
    escaped, so the output never contains a raw newline.  Well-formed UTF-8
    is copied through; each byte that does not start a well-formed UTF-8
    sequence is written as the escape for U+FFFD, so the output is always valid UTF-8.
    Integral floats print as [N.0], others with 12 significant digits;
    NaN and infinities print as [null]. *)
val to_string : t -> string

(** Strict single-value parse (trailing garbage is an error): no comments,
    the JSON number grammar exactly (no [+5], [01], [.5] or [1.]), and
    [\uXXXX] escapes decoded to UTF-8 with surrogate pairs combined.
    Integer literals outside the [int] range read as [Float]. *)
val parse : string -> (t, string) result

(** [member name j] — field of an [Obj], else [None]. *)
val member : string -> t -> t option

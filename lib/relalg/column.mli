(** Column vectors: one column of a run of consecutive rows, decoded once.

    [Tint] / [Tfloat] / [Tdate] columns whose values are all of the
    declared type (or NULL) are stored unboxed — an [int array] /
    [float array] / [int array] of day keys — beside a [bool array] of
    NULL flags (one shared array for every full vector without a NULL);
    everything else falls back to a boxed {!Value.t} array.
    Vectors are shared once built (a heap file's column image hands the
    same vectors to every scan), so nothing writes into one after
    {!of_rows} returns. *)

type t =
  | Ints of { data : int array; nulls : bool array }
  | Floats of { data : float array; nulls : bool array }
  | Dates of { data : int array; nulls : bool array }
      (** day keys ({!Value.date_key}: [compare] orders dates by them, so
          an int comparison of two keys is [Value.compare]) *)
  | Values of Value.t array
      (** boxed fallback: strings, and columns holding a value of another
          type than the schema's *)

(** Rows per vector (a vectorized batch, a heap file's image chunk).
    Tuned to 240 so a freshly allocated [int array] column (240 + header
    words) stays under the OCaml minor heap's 256-word
    direct-major-allocation threshold ([Max_young_wosize]): at 1024 every
    column vector was allocated on the major heap and each query paid for
    it in GC slices.  240 also keeps a full batch of a few columns
    resident in L1. *)
val max_rows : int

(** Transpose rows into one vector per schema column, choosing the
    unboxed representation the column type promises.  A single
    non-conforming value ([Float 1.] in a [Tint] column, a date without an
    exact day key) demotes its column to [Values]: a vector always gives
    back exactly the values it was built from. *)
val of_rows : Schema.t -> Row.t array -> t array

(** Value at a row index. *)
val value : t -> int -> Value.t

val is_null : t -> int -> bool

(** The date a {!Dates} key stands for. *)
val date_of_key : int -> Value.date

(** Minimal dependency-free JSON emitter and parser.

    Strings are escaped; non-finite floats are emitted as [null] so
    documents always parse.  Finite floats use the shortest decimal
    form that round-trips to the same IEEE double ([float_repr]), so an
    emit/parse cycle is lossless. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val float_repr : float -> string
(** Shortest of [%.15g]/[%.16g]/[%.17g] that parses back to exactly the
    input. *)

val to_string : t -> string
val write : path:string -> t -> unit

exception Parse_error of string

val parse : string -> t
(** Parse one complete JSON document; raises {!Parse_error} on
    malformed input or trailing garbage.  Numbers without a fraction or
    exponent that fit in [int] become [Int], everything else [Float]. *)

val parse_file : string -> t

(** Accessors used by the bench regression gate and tests; each returns
    [None] on a shape mismatch. *)

val member : string -> t -> t option
val to_float_opt : t -> float option
val to_int_opt : t -> int option
val to_bool_opt : t -> bool option
val to_string_opt : t -> string option

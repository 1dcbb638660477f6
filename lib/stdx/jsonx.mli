(** The one JSON value type.

    Every JSON surface is built as a {!t} and printed by {!to_string}:
    the serve protocol's requests and replies, [Pipeline_error]'s
    error objects, the static verifier's report, the observability
    JSON-lines export and the CLI's [--format json] outputs.  So there
    is one printer and one string escaper.

    The parser is a small recursive descent, total over arbitrary
    bytes: a malformed or non-UTF-8 input yields [Error msg], never an
    exception, which is the contract the wire fuzzer
    ([Serve.Wire_fuzz]) hammers on.

    Numbers: integers parse as [Int]; anything with a fraction or
    exponent as [Float].  Strings must be valid UTF-8 after unescaping
    ([\uXXXX] escapes cover the BMP only: surrogate pairs are
    rejected).

    Round trip: for a value with no [Float] in it, whose strings are
    valid UTF-8 and which nests no deeper than the parser's limit of 64
    levels, [parse (to_string v) = Ok v] exactly.  A [Float] prints with 12
    significant digits ([%.12g]), which is not a round-trip
    representation: [Float (0.1 +. 0.2)] prints [0.3], and
    [Float 2.0] prints [2], which parses back as [Int 2].  Non-finite
    floats print as [null]; JSON has no spelling for them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Total: any input yields a value or a one-line error message with a
    byte offset.  Trailing non-whitespace after the value is an
    error. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the compact rendering: no whitespace, fields in list
    order.  In strings, newline, carriage return, tab, the double
    quote and the backslash take their short escapes, other bytes
    below 0x20 print as [\u00XX], and every other byte is copied. *)

val to_string : t -> string

(** {2 Accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for absent fields and non-objects. *)

val to_int : t -> int option

val to_float : t -> float option
(** Accepts [Int] too. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

(** Minimal JSON tree, emitter and strict parser.

    Backs every machine-readable surface of the observability layer:
    Chrome trace-event files ({!Flight.dump}), the metrics export
    ({!Metrics.to_json}), and the benchmark harness's [BENCH_*.json]
    result files.  Ints and floats are distinct constructors so counter
    values round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val emit : Buffer.t -> t -> unit
(** Append the serialized value. Strings are escaped per RFC 8259;
    non-finite floats become [null]. *)

val to_string : t -> string

val to_file : string -> t -> unit
(** Write the value (plus a trailing newline) to a file. *)

exception Parse_error of string

val of_string : string -> t
(** Strict parse of a complete JSON document; raises {!Parse_error} on
    malformed input or trailing garbage. *)

val of_file : string -> t

val member : string -> t -> t option
(** [member k (Obj ...)] is the value bound to [k], if any. *)

val to_list : t -> t list option
val to_str : t -> string option
val to_int : t -> int option

val to_number : t -> float option
(** Ints and floats, unified. *)

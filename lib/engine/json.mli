(** A minimal JSON reader/writer.

    The repository has no JSON dependency by design; this module covers
    the subset our own tools emit — bench snapshots, metric dumps.
    Numbers are held as floats (snapshot values are measurements; 53-bit
    precision is ample). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val escape : Buffer.t -> string -> unit
(** Append [s] escaped for use inside a JSON string literal (quotes not
    included): quote, backslash, newline, tab and carriage return by their
    short forms, every other control character as [\u00XX]. *)

val to_string : t -> string
val of_string : string -> t
(** @raise Parse_error on malformed input. *)

val of_file : string -> t
val write_file : string -> t -> unit

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects and missing keys. *)

val to_float : t -> float option
val to_list : t -> t list option
val to_str : t -> string option

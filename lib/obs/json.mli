(** Minimal JSON tree, printer and parser.

    The observability subsystem emits Chrome trace files, JSONL audit
    logs and metric snapshots; tests parse them back to validate
    structure.  No external JSON dependency is available in the build
    image, so this is a small self-contained implementation covering
    the JSON we produce (objects, arrays, strings, finite numbers,
    booleans, null). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t
(** Integer-valued {!Num}. *)

val to_string : t -> string
(** Compact single-line rendering.  Integral numbers print without a
    decimal point; non-finite numbers print as [null] (JSON has no
    representation for them). *)

val to_channel : out_channel -> t -> unit

val parse : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. *)

val member : string -> t -> t option
(** Field lookup on an object ([None] on anything else). *)

val field : string -> t -> string -> (t -> 'a option) -> ('a, string) result
(** [field what j name conv]: field [name] of [j] through [conv], else
    [Error "WHAT: missing or ill-typed field \"NAME\""]. *)

val to_num : t -> float option
val to_int : t -> int option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option

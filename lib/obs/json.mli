(** Minimal JSON tree, printer, parser and record codecs.

    The observability subsystem emits Chrome trace files, JSONL event
    streams, run manifests and history records, and reads all but the
    traces back.  No external JSON dependency is available in the
    build image, so this is a small self-contained implementation
    covering the JSON we produce (objects, arrays, strings, finite
    numbers, booleans, null).  Each format read back is declared once,
    as a {!codec} that both encodes and decodes it. *)

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

val to_num : t -> float option

val to_int : t -> int option
(** An integral number within OCaml's int range, [\[-2{^62}, 2{^62})]. *)

val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

(** {1 Codecs}

    A codec pairs an encoder with the decoder that reads its output
    back, so each format is declared once.  An object lists its fields
    in the order they are written:

    {[
      let span =
        Json.(
          obj (fun start stop -> { start; stop })
          |> req "start" integer (fun s -> s.start)
          |> req "stop" integer (fun s -> s.stop)
          |> seal)
    ]}

    Decoding ignores keys the codec does not declare.  An error starts
    with the path to the value it is about, as in
    ["benches[3].sched.entries: missing"]. *)

type 'a codec

val encode : 'a codec -> 'a -> t
val decode : 'a codec -> t -> ('a, string) result

val decode_string : 'a codec -> string -> ('a, string) result

val integer : int codec
val num : float codec
val str : string codec
val bool : bool codec

val raw : t codec
(** Any value, kept as it is. *)

val list : 'a codec -> 'a list codec

val assoc : 'a codec -> (string * 'a) list codec
(** An object whose keys are data, in order. *)

val pair : 'a codec -> 'b codec -> ('a * 'b) codec
(** A two-element array. *)

val enum : ('a -> string) -> 'a list -> 'a codec
(** [enum name values]: the string [name v] of one of [values]. *)

val map : ('a -> ('b, string) result) -> ('b -> 'a) -> 'a codec -> 'b codec
(** [map dec enc c]: decode with [c] then [dec], which may reject the
    value; encode with [enc] then [c]. *)

val version : int -> unit codec
(** A schema version: [n] is written, and any other number is rejected. *)

type ('o, 'k) obj
(** The fields of an ['o] declared so far, where ['k] is what the
    [make] function of {!obj} still takes; [('o, 'o) obj] is complete. *)

val obj : 'k -> ('o, 'k) obj

val req :
  ?default:'a -> string -> 'a codec -> ('o -> 'a) -> ('o, 'a -> 'k) obj -> ('o, 'k) obj
(** A field that is always written.  Reading fails when it is
    ill-typed, or missing without a [default]. *)

val opt :
  string -> 'a codec -> ('o -> 'a option) -> ('o, 'a option -> 'k) obj -> ('o, 'k) obj
(** A field written when [Some] and read as [None] when missing. *)

val const : string -> t -> ('o, 'k) obj -> ('o, 'k) obj
(** A fixed field, written and never read. *)

val inline : ('a, 'a) obj -> ('o -> 'a) -> ('o, 'a -> 'k) obj -> ('o, 'k) obj
(** Another object's fields, written among this one's. *)

val seal : ('o, 'o) obj -> 'o codec

type 'a case

val case : string -> ('b, 'b) obj -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case tag fields inject project]: the values [project] accepts. *)

val tagged : string -> 'a case list -> ('a, 'a) obj
(** [tagged key cases]: the field [key] holds the case's tag, and the
    case's fields follow it. *)

val load_jsonl : path:string -> 'a codec -> ('a list * int, string) result
(** Every decodable line of a JSON Lines file in file order, plus the
    count of non-empty lines that failed to parse or decode.  [Error]
    only when the file itself cannot be read. *)

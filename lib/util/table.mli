(** Table renderer for experiment reports.

    Every experiment driver renders its paper table/figure through this
    module so that `rfh <figure>` output is uniform and diffable; the
    HTML pages render the same values through {!html}. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a caption line and column headers. *)

val add_row : t -> string list -> unit
(** Rows may be shorter than the header; missing cells render empty.
    @raise Invalid_argument if longer than the header. *)

val add_float_row : t -> string -> ?decimals:int -> float list -> unit
(** [add_float_row t label xs] renders [label] then each float. *)

val render : t -> string
(** Render with aligned columns and a separator under the header. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

val csv : t -> string
(** Comma-separated rendering (header + rows, no title). *)

val html : t -> string
(** HTML rendering: one [<table>] with the title as its [<caption>],
    a header row and one row per {!add_row} (short rows padded with
    empty cells).  Every cell is plain text, escaped once; the first
    column carries [class=l] (left-aligned). *)

val escape_html : string -> string
(** Escape ampersand, angle brackets and both quote characters for
    HTML text and attribute values. *)

(** Fixed-size mutable bitsets and bit matrices for dataflow analyses.

    Cost model: the bits live in an [int array], 63 to a word (every
    bit of an OCaml int), and the bits past the capacity are kept zero.
    [set], [clear] and [mem] are O(1) with a bounds check.  The
    [_into] operators, [equal], [fill_all], [clear_all] and [count] (a
    per-word popcount) are one closure-free loop over [capacity / 63]
    words.  [iter] skips zero words whole, so a sparse set costs its
    words plus its members.  Only [create] allocates.

    A {!matrix} is the per-block form of a dataflow fact: [rows] sets of
    one capacity laid end to end in {e one} [int array], so a table of
    any height is one block of immediates.  Past 256 words OCaml
    allocates such an array directly in the major heap, where an array
    of per-row sets would be an array of pointers: every set stored
    into it is recorded by the write barrier and promoted by the next
    minor collection, live or not, and [Array.init] over a fresh first
    set forces that collection up front.  Row operations cost what the
    set operations do, over one row's words, and allocate nothing. *)

type t

val create : int -> t
(** All-zero bitset of the given capacity. *)

val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
val union_into : dst:t -> t -> bool
(** [union_into ~dst src] ors [src] into [dst]; returns [true] if [dst]
    changed.  Capacities must match. *)

val equal : t -> t -> bool
val fill_all : t -> unit
val clear_all : t -> unit
val iter : t -> (int -> unit) -> unit
(** Members in ascending order. *)

val count : t -> int
(** Number of members: a popcount per word, not a probe per bit. *)

(** {2 Bit matrices} *)

type matrix

val matrix : rows:int -> int -> matrix
(** [matrix ~rows n]: [rows] all-zero rows of capacity [n], in one
    [int array] of [rows * ceil (n / 63)] words. *)

val cols : matrix -> int
(** The capacity of every row. *)

val row_mem : matrix -> int -> int -> bool
(** [row_mem m r i]: is bit [i] of row [r] set? *)

val row_set : matrix -> int -> int -> unit
val row_clear : matrix -> int -> int -> unit

val load_row : dst:t -> matrix -> int -> unit
(** [load_row ~dst m r] overwrites [dst] with row [r]; [dst]'s capacity
    must be the matrix's. *)

val store_row : matrix -> int -> t -> unit
(** [store_row m r src] overwrites row [r] with [src]. *)

val union_row_into : dst:t -> matrix -> int -> bool
(** Ors row [r] into [dst]; returns [true] if [dst] changed. *)

val inter_row_into : dst:t -> matrix -> int -> bool
(** Ands row [r] into [dst]; returns [true] if [dst] changed. *)

val union_rows : dst:matrix -> int -> matrix -> int -> bool
(** [union_rows ~dst r src s] ors row [s] of [src] into row [r] of
    [dst]; returns [true] if it changed.  Row capacities must match. *)

val diff_row_into : dst:t -> matrix -> int -> bool
(** Removes row [r]'s bits from [dst]; returns [true] if [dst] changed. *)

val union_into_row : matrix -> int -> t -> bool
(** [union_into_row m r src] ors [src] into row [r]; returns [true] if
    the row changed. *)

val inter_into_row : matrix -> int -> t -> bool
(** [inter_into_row m r src] ands [src] into row [r]; returns [true] if
    the row changed. *)

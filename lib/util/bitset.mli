(** Fixed-size mutable bitsets for dataflow analyses.

    Cost model: the bits live in an [int array], 63 to a word (every
    bit of an OCaml int), and the bits past the capacity are kept zero.
    [set], [clear] and [mem] are O(1) with a bounds check.  The
    [_into] operators, [equal], [is_empty], [fill_all], [clear_all] and
    [count] (a per-word popcount) are one closure-free loop over
    [capacity / 63] words.  [iter] and [elements] skip zero words whole,
    so a sparse set costs its words plus its members.  Only [create],
    [copy] and [elements] (its list) allocate. *)

type t

val create : int -> t
(** All-zero bitset of the given capacity. *)

val capacity : t -> int
val copy : t -> t
val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
val union_into : dst:t -> t -> bool
(** [union_into ~dst src] ors [src] into [dst]; returns [true] if [dst]
    changed.  Capacities must match. *)

val inter_into : dst:t -> t -> bool
(** Ands [src] into [dst]; returns [true] if [dst] changed. *)

val diff_into : dst:t -> t -> bool
(** Removes [src]'s bits from [dst]; returns [true] if [dst] changed. *)

val equal : t -> t -> bool
val is_empty : t -> bool
val fill_all : t -> unit
val clear_all : t -> unit
val iter : t -> (int -> unit) -> unit
(** Members in ascending order. *)

val elements : t -> int list
(** Members in ascending order. *)

val count : t -> int
(** Number of members: a popcount per word, not a probe per bit. *)

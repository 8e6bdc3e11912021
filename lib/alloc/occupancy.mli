(** Interval reservation over the entries of one upper-level structure
    (ORF or LRF) within one strand — the [orfEntry.available(begin,
    end)] test of paper Fig. 7.

    Positions are instruction ids (static issue slots).  Intervals are
    half-open [[first, last)]: operands are read before results are
    written within an instruction, so a value written at the slot where
    another value is last read may reuse its entry — this is what lets
    a dependence chain flow through a single LRF bank.  A write always
    occupies at least its own slot, so callers pass
    [last = max (last_read, first + 1)].

    Cost model: each entry is a row of bits over positions, so the
    structure is one [int array] of [entries x positions / 63] words
    (grown when a reservation reaches past it): [available] and
    [reserve] cost one word per 63 positions the interval spans.  One
    structure can therefore serve every strand of a kernel at once —
    strands are disjoint layout intervals, so their reservations never
    meet. *)

type t

val create : entries:int -> t
(** @raise Invalid_argument if [entries < 0]. *)

val entries : t -> int

val available : t -> entry:int -> first:int -> last:int -> bool
(** Is [[first, last)] free on the entry?  [last] must be > [first].
    @raise Invalid_argument if [first < 0]. *)

val reserve : t -> entry:int -> first:int -> last:int -> unit
(** @raise Invalid_argument if the interval overlaps an existing
    reservation on the entry or is empty. *)

val find_free : t -> width:int -> first:int -> last:int -> int option
(** Lowest entry index [e] such that entries [e .. e + width - 1] are
    all available over the interval (wide values occupy consecutive
    entries, Sec. 3.2). *)

val reserve_range : t -> entry:int -> width:int -> first:int -> last:int -> unit

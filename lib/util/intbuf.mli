(** Growable int arrays, for tables whose size a pass learns only as it
    fills them (compressed rows of sets, lists of sites).

    Cost model: [push] is amortised O(1), doubling the backing [int
    array] when full; an array of immediates, so a minor collection
    promotes nothing it holds. *)

type t

val create : int -> t
(** An empty buffer with room for the given number of ints (at least 1). *)

val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int
(** @raise Invalid_argument past [length]. *)

val to_array : t -> int array
(** A fresh array of the ints pushed, in order. *)

(** Small numeric helpers used by experiment drivers and tests. *)

val mean : float list -> float
(** Arithmetic mean; 0.0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0.0 on the empty list. *)

val sum : float list -> float

val percent : float -> float -> float
(** [percent part whole] is [100 * part / whole]; 0 if [whole = 0]. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b]; 0 if [b = 0]. *)

val clamp : lo:float -> hi:float -> float -> float

val round_to : int -> float -> float
(** [round_to d x] rounds [x] to [d] decimal places. *)

type histogram
(** Integer-keyed counting histogram. *)

val histogram : unit -> histogram
val hincr : histogram -> ?by:int -> int -> unit
val hcount : histogram -> int -> int
val htotal : histogram -> int
val hbins : histogram -> (int * int) list
(** Sorted (key, count) pairs. *)

val hfraction : histogram -> (int -> bool) -> float
(** Fraction of total mass whose key satisfies the predicate. *)

(** Energy-savings functions driving allocation priorities.

    [write_unit] is paper Fig. 6 (generalized to the LRF and to
    per-consumer wire energies): moving a produced value's covered
    reads from the MRF to the upper level saves the read-energy delta
    per read, costs one upper-level write, and — when the value is not
    needed from the MRF — additionally saves the MRF write.

    [read_unit] is paper Fig. 9: for a value that already lives in the
    MRF, the first read still comes from the MRF (and fills the ORF),
    so only the remaining reads save energy, and the ORF write is pure
    overhead. *)

val write_unit :
  Config.t ->
  target:[ `Orf | `Lrf ] ->
  producer_dp:Energy.Model.datapath ->
  reads:Energy.Model.datapath list ->
  mrf_write_required:bool ->
  float
(** [reads] lists the consuming datapath of each read that the upper
    level would serve. *)

val read_unit : Config.t -> reads:Energy.Model.datapath list -> float
(** [reads] lists every read of the range including the first
    (MRF-served) one; callers guarantee at least two. *)

val terms : Config.t -> float array
(** The terms [write_unit] and [read_unit] add, at [base + dp] (dp 0
    private, 1 shared): a served read's MRF read less the level's at the
    ORF (base 0) and LRF (4), the level's write at 2 and 6, the MRF
    write at 8; NaN for the LRF's shared datapath, which it lacks. *)

val priority : savings:float -> first:int -> last:int -> float
(** Savings divided by the static issue slots the value would occupy
    (Fig. 7's weighting). *)

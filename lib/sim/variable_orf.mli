(** Variable ORF allocation with a {e realistic} scheduler (Sec. 7).

    The paper evaluates per-strand ORF sizing only under an oracle that
    knows which warps will run.  This module implements the mechanism
    the paper sketches and rejects as hard: strands carry an
    entry-count request (here: the distinct ORF entries their placement
    uses); at runtime the active warps share a fixed pool of physical
    entries; a strand's grant is whatever is free when it starts, and
    accesses to entries beyond the grant fall back to the MRF — legal
    because the compiler ran with {!Alloc.Config.mirror_mrf}, keeping
    an MRF copy of every upper-level value ("there is always a MRF
    entry reserved for each ORF value").

    Warps interleave round-robin at instruction granularity (the
    active set holds [active] warps; finished warps are replaced), so
    grant contention reflects genuinely concurrent strands — no oracle
    knowledge of future warps.

    The walk reads each warp's stream from this domain's
    {!Scratch.fill_streams} table (capped at
    {!Scratch.default_max_dynamic} instructions) and only counts each
    instruction's executions per grant size [g]; {!Traffic.price} then
    prices grant [g]'s executions under
    [Alloc.Placement.within placement ~orf_entries:g]. *)

type result = {
  counts : Energy.Counts.t;
  strand_executions : int;
  full_grants : int;      (** request fully satisfied *)
  partial_grants : int;   (** granted less than requested *)
  entries_denied : int;   (** total requested-but-denied entries *)
}

val run :
  ?active:int ->          (* default 8: the two-level scheduler's active set *)
  ?warps:int ->
  ?seed:int ->
  pool_entries:int ->
  config:Alloc.Config.t ->
  placement:Alloc.Placement.t ->
  Alloc.Context.t ->
  result
(** @raise Invalid_argument unless [config.mirror_mrf] is set, or if
    [pool_entries < 0]. *)

val strand_requests : Alloc.Context.t -> Alloc.Placement.t -> int array
(** Per strand: distinct ORF entries its placement touches — the
    request the compiler would encode in the strand header. *)

(** The greedy energy-driven allocator (paper Sec. 4).

    Pipeline, per strand:

    + Build {e write units} from def-use instances: the value produced
      by a definition (or by a group of definitions merged at a join,
      Fig. 10(c)) together with the subset of its reads that are safe
      to serve from an upper level — same strand and must-defined on
      every path.  Unsafe reads stay in the MRF and force an MRF copy.
      Long-latency producers are excluded: their results go straight to
      the MRF (their consumers begin a new strand).
    + Build {e read units} (Sec. 4.4) from registers read in the strand
      whose reaching definitions all lie outside it (including kernel
      inputs): the first read stays in the MRF and fills an ORF entry;
      later reads that the first read dominates are served by the ORF.
    + Phase 1 (Sec. 4.6): allocate LRF-eligible write units to the LRF
      greedily by savings per occupied issue slot.  The LRF rules, in
      the order the explainer reports the first one a unit fails: the
      configuration has an LRF; a private-datapath producer; a 32-bit
      value; private-datapath covered consumers; and — in split mode —
      a single operand slot across all covered reads.  Read units are
      ORF-only.
    + Phase 2: allocate the rest to the ORF by the same priority,
      iteratively shortening ranges that do not fit when partial-range
      allocation (Sec. 4.3) is enabled.

    The result is a {!Placement.t} mapping every operand to a level.
    Each candidate records its own decision — its outcome, how often
    it was shortened and its last savings estimate at each level — and
    the statistics, the [alloc.*] metrics, the {!Obs.Audit} allocation
    events and the {!Obs.Explain} decisions are all read off those
    records after the two phases.

    Cost model: candidates are rows of a table of immediates that each
    domain keeps and only grows, priced from {!Savings.terms} once per
    run; a warm domain's run allocates about 10 minor words per
    instruction, mostly its placement, and promotes nothing.  [run] is
    not re-entrant within a domain. *)

type stats = {
  write_units : int;      (** candidates considered *)
  read_units : int;
  lrf_allocated : int;
  orf_allocated : int;    (** full ranges (write + read units) *)
  partial_allocated : int;  (** ranges shortened before fitting *)
}

val run : Config.t -> Context.t -> Placement.t * stats

val place : Config.t -> Context.t -> Placement.t
(** [run] without the statistics. *)

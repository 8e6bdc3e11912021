(** Differential view of two allocation-decision streams.

    [rfh why] feeds two {!Explain} JSONL streams (baseline and
    candidate) through {!align}: decisions are keyed by live-range
    identity — (kernel, unit kind, register, strand, interval start,
    occurrence index) — so the same value considered by both runs pairs
    up even when emission order or sequence numbers shifted.  Each
    aligned pair is classified into zero or more {!flip}s: the chosen
    level changed, a candidate's verdict changed, a savings estimate
    drifted, or the covered/dropped read shape moved.  Unmatched
    decisions are reported per side.

    Everything downstream must be byte-deterministic: {!align} sorts
    both inputs by (kernel, seq) first, so the same two streams —
    regardless of file order or the [--jobs] setting that produced the
    run — always yield the same diff, and {!check} verifies the exact
    accounting ([aligned + only_a = total_a], per-kernel sums, move
    buckets vs level flips) in the spirit of [Obs.Engine.check]. *)

(** Live-range identity used for alignment. *)
type key = {
  k_kernel : string;
  k_kind : string;  (** ["write_unit"] or ["read_unit"] *)
  k_reg : string;
  k_strand : int;
  k_first : int;  (** live-interval start (instruction id) *)
  k_occurrence : int;
      (** disambiguates repeated (kernel, kind, reg, strand, first)
          keys, in per-kernel seq order *)
}

(** One way an aligned decision pair differs. *)
type flip =
  | Level_changed of { from_level : string; to_level : string }
      (** the winning level moved, e.g. ORF -> MRF *)
  | Verdict_changed of { level : string; was : string; now : string }
      (** a candidate's verdict flipped while the outcome level held *)
  | Savings_changed of { level : string; was : float; now : float }
  | Coverage_changed of {
      covered_was : int;
      covered_now : int;
      dropped_was : int;
      dropped_now : int;
    }

type pair = {
  p_key : key;
  p_a : Explain.decision;
  p_b : Explain.decision;
  p_flips : flip list;  (** empty = identical decision *)
}

(** One (from level -> to level) migration bucket of a kernel. *)
type move = {
  m_from : string;
  m_to : string;
  m_count : int;  (** aligned ranges that took this move *)
  m_savings_delta : float;
      (** summed chosen-candidate savings delta (candidate - baseline)
          over the moved ranges *)
}

type kernel_stats = {
  ks_kernel : string;
  ks_aligned : int;
  ks_changed : int;  (** aligned pairs with at least one flip *)
  ks_moves : move list;  (** deterministic (from, to) order *)
  ks_verdict_flips : int;
  ks_savings_delta : float;
      (** summed chosen-savings delta over all aligned pairs *)
  ks_covered_delta : int;
  ks_dropped_delta : int;
  ks_only_a : int;
  ks_only_b : int;
}

type t = {
  d_pairs : pair list;  (** changed pairs only, (kernel, seq) order *)
  d_only_a : Explain.decision list;
  d_only_b : Explain.decision list;
  d_kernels : kernel_stats list;  (** kernels in first-seen sorted order *)
  d_total_a : int;
  d_total_b : int;
  d_aligned : int;
}

val align : a:Explain.decision list -> b:Explain.decision list -> t
(** Deterministic: both inputs are sorted by (kernel, seq) before
    alignment, so file order and producer [--jobs] do not matter. *)

val flip_name : flip -> string
(** Compact deterministic description, e.g.
    ["moved orf -> mrf"], ["lrf verdict chosen -> no_free_slot"]. *)

val check : t -> string list
(** Accounting self-check: empty = sound.  Verifies
    [aligned + |only_a| = total_a] (and the b side), that per-kernel
    stats sum back to the stream totals, and that the move buckets
    reproduce the level-flip pairs exactly. *)

val tables : t -> Util.Table.t list
(** The per-kernel summary (aligned, changed, level moves, verdict
    flips, savings and dropped-read deltas; the title carries the
    stream totals) and the changed live ranges with their flips. *)

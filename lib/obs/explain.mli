(** Allocation-decision explainer.

    The compile-time allocator emits one {!decision} per live-range
    unit it considers (write units and read-operand units): the
    candidate levels it weighed, the per-level energy-savings estimate,
    partial-range shortening applied, and the final placement, through
    a {!Recorder}.  Decisions are emitted in a deterministic
    order (write units first, then read units, both in construction
    order), independent of the priority order in which the allocator
    drained its queues. *)

(** Why a candidate level was or was not selected. *)
type verdict =
  | Chosen  (** this level won the live range *)
  | Ineligible of string  (** structurally excluded; the payload says why *)
  | Negative_savings  (** allocating would cost more energy than it saves *)
  | No_free_slot  (** occupancy rejected it, even after shortening *)

type candidate = {
  level : string;  (** ["lrf"] or ["orf"] *)
  savings : float;  (** estimated pJ saved across all warps, at final shape *)
  verdict : verdict;
}

type outcome =
  | To_lrf of { bank : int }
  | To_orf of { entry : int; shortened : int }
      (** [shortened] counts partial-range shortening steps applied *)
  | To_mrf  (** left in the main register file *)

type decision = {
  seq : int;  (** deterministic per-kernel emission index *)
  kernel : string;
  reg : string;
  kind : string;  (** ["write_unit"] or ["read_unit"] *)
  strand : int;
  width : int;
  first : int;  (** live interval start (instruction id, inclusive) *)
  last : int;  (** live interval end (instruction id, exclusive) *)
  defs : int list;  (** defining instruction ids (write units) *)
  covered : (int * int) list;  (** (instr, operand slot) reads served, final shape *)
  dropped_reads : int;  (** reads dropped by partial-range shortening *)
  mrf_copy : bool;  (** an MRF copy of the value is still required *)
  candidates : candidate list;
  outcome : outcome;
}

include Recorder.S with type t = decision

(** {1 Derived views} *)

val placed : decision -> bool
(** True when the outcome is LRF or ORF. *)

val outcome_level : decision -> string
(** ["lrf"], ["orf"] or ["mrf"]. *)

(** One instruction of a kernel's energy heatmap. *)
type instr_line = {
  pc : int;
  strand : int;
  text : string;
  pj : float;  (** attributed register-file energy *)
  share : float;  (** fraction of the kernel's total attributed energy *)
}

(** Everything {!Html_report} needs to render one kernel's explain
    section; assembled by the [rfh explain] driver so [obs] stays free
    of [ir]/[energy] dependencies. *)
type kernel_report = {
  kr_kernel : string;
  kr_decisions : decision list;
  kr_instrs : instr_line list;
  kr_total_pj : float;
}

(** {1 Encoding} *)

val to_json : decision -> Json.t
val of_json : Json.t -> (decision, string) result
val pp : Format.formatter -> decision -> unit
val verdict_name : verdict -> string

(** {1 Rendering} *)

val decision_table : kernel:string -> decision list -> Util.Table.t
(** ["Decisions: <kernel>"]: one row per decision — seq, value (with
    [+mrf-copy]), unit kind, strand, live range, reads served (with
    the partial-range drop), the LRF and ORF verdicts with their
    savings estimates, and the final placement.  What [rfh explain]
    prints and its [--report-out] page renders. *)

val top_table : n:int -> kernel_report -> Util.Table.t
(** ["Top <n> instructions by attributed energy: <kernel>"]: the [n]
    instructions carrying the most attributed energy, highest first
    (ties by pc), with strand, text, pJ and share of the kernel's
    total. *)

val stats_checks : decision list -> Manifest.bench -> (string * int * int) list
(** The explainer-vs-manifest cross-checks of one benchmark: each
    check's name, the count from the decision stream and the count
    from the manifest's allocator stats.  Every live-range unit the
    allocator considered must have produced exactly one decision, and
    the outcome tally must reproduce the stats. *)

val cross_check_table : (string * int * int) list -> Util.Table.t
(** ["Cross-check vs run-manifest allocator stats"]: one row per
    {!stats_checks} entry, marked [ok] or [MISMATCH]. *)

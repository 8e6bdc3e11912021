(** Register-file access counters and their conversion to energy.

    One count unit is one warp-instruction operand access: 8 clusters
    each performing a 128-bit bank access.  The factor 8 is constant
    across all configurations and cancels in normalized results, so
    counts are converted with per-128-bit energies directly. *)

type t

val create : unit -> t
val merge_into : dst:t -> t -> unit
(** Adds [src] into [dst], attribution tables included ([dst] adopts a
    copy of [src]'s table if it has none).
    @raise Invalid_argument if both carry tables of different sizes. *)

(** {2 Per-pc count rows}

    Counts are added a row at a time: a simulator charges every access
    to a static instruction, tallies them in a flat int array, one row
    of [row_cells] cells per instruction, and folds each row in once at
    the end of its run. *)

val row_cells : int
(** Cells per row: reads and writes per (level, datapath), then RFC
    probes. *)

val read_cell : Model.level -> Model.datapath -> int
(** Row cell of reads at that level and datapath.  A level's [Shared]
    cell directly follows its [Private] one, for reads and writes
    alike. *)

val write_cell : Model.level -> Model.datapath -> int

val probe_cell : int
(** Row cell of RFC tag probes that missed. *)

val add_row : t -> int array -> off:int -> times:int -> pc:int -> unit
(** [add_row t row ~off ~times ~pc] adds [times] × the row starting at
    [row.(off)] to the aggregate counts and, when attribution is on,
    to instruction [pc]'s attribution row (an out-of-range [pc] is
    dropped from attribution only). *)

(** {1 Per-instruction attribution}

    Off by default: [create] allocates no side table and {!add_row}'s
    [pc] costs one branch.  After [enable_attribution t ~instrs], every
    row added with an in-range [pc] is also charged to that
    instruction, so energy can be ranked over the static instruction
    stream.  The attribution table never feeds {!to_json} — manifests
    are unaffected. *)

val enable_attribution : t -> instrs:int -> unit
(** [instrs] is the kernel's instruction count (pc range). *)

val attributed_energies : Params.t -> orf_entries:int -> t -> float array
(** Per-pc attributed register-file energy (pJ) for the whole
    instruction stream; [[||]] when attribution is off.  Sums to
    {!energy}'s [total] when every row added carried an in-range
    [pc]. *)

val top_instrs : Params.t -> orf_entries:int -> ?n:int -> t -> (int * float) list
(** The [n] highest-energy instructions as [(pc, pJ)], energy
    descending, pc ascending on ties. *)

val reads : t -> Model.level -> int
(** Total reads of a level across both datapaths. *)

val writes : t -> Model.level -> int

val reads_dp : t -> Model.level -> Model.datapath -> int
val writes_dp : t -> Model.level -> Model.datapath -> int
val rfc_probes : t -> int
val total_reads : t -> int
val total_writes : t -> int

type level_energy = {
  level : Model.level;
  access : float;  (** bank access energy, pJ *)
  wire : float;    (** operand distribution wire energy, pJ *)
}

type breakdown = {
  levels : level_energy list;  (** MRF, ORF, RFC, LRF in that order *)
  total : float;
}

val energy : Params.t -> orf_entries:int -> t -> breakdown
(** [orf_entries] selects the Table-3 row used for ORF/RFC accesses. *)

val json_key : Model.level -> string
(** Lowercase level name used as the JSON object key ("mrf", ...). *)

val to_json : t -> Obs.Json.t
(** Datapath-resolved counts per level, keyed by lowercase level name
    in MRF, ORF, RFC, LRF order, plus ["rfc_probes"] — the shape run
    manifests embed.  Field order is fixed, so encodings of equal
    counts are byte-identical. *)

val pp : Format.formatter -> t -> unit
